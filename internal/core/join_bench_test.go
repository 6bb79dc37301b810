package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkJoinScratch times one scratch join of a ranking query's
// candidate against its compiled train probe (256-entry sketches, the
// store's default size), cycling through 64 candidates on one Scratch.
// "shared-keys" candidates are columns of one table: a common key
// column, so byte-equal coordinated key samples, and every join after
// the first is served by the scratch's join memo. "distinct-keys"
// candidates each sample their own window of the key domain, so every
// join is a full hash join and the memo's bookkeeping is pure overhead.
func BenchmarkJoinScratch(b *testing.B) {
	const (
		size   = 256
		domain = 400
		nCand  = 64
	)
	opt := Options{Method: TUPSK, Size: size}
	rng := rand.New(rand.NewSource(3))
	tb, err := NewStreamBuilder(RoleTrain, true, opt)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10*domain; i++ {
		g := rng.Intn(domain)
		tb.AddNum(fmt.Sprintf("g%d", g), float64(g%17)+rng.NormFloat64())
	}
	probe := CompileTrainProbe(tb.Sketch())
	cand := func(lo, hi int) *Sketch {
		cb, err := NewStreamBuilder(RoleCandidate, true, opt)
		if err != nil {
			b.Fatal(err)
		}
		for g := lo; g < hi; g++ {
			cb.AddNum(fmt.Sprintf("g%d", g), rng.NormFloat64())
		}
		return cb.Sketch()
	}
	for _, bench := range []struct {
		name   string
		window func(c int) (lo, hi int)
	}{
		{"shared-keys", func(int) (int, int) { return 0, domain }},
		{"distinct-keys", func(c int) (int, int) { return 3 * c, 3*c + domain - 100 }},
	} {
		cands := make([]*Sketch, nCand)
		for c := range cands {
			cands[c] = cand(bench.window(c))
		}
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			var s Scratch
			joined := 0
			for i := 0; i < b.N; i++ {
				js, err := probe.JoinScratch(cands[i%nCand], &s)
				if err != nil {
					b.Fatal(err)
				}
				joined += js.Size
			}
			b.ReportMetric(float64(joined)/float64(b.N), "pairs/op")
		})
	}
}

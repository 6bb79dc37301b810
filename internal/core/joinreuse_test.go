package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"misketch/internal/mi"
)

// The join memo must be invisible: whatever sequence of probes and
// candidates a Scratch has served, JoinScratch, the cheap tier,
// EstimateJoined and KeyOverlapScratch on it return bit for bit what a
// fresh Scratch returns. These tests drive randomized interleavings of
// the cases the memo must tell apart — equal and different key
// samples, the same keys under a different probe, a numeric candidate
// followed by a categorical one over the same keys, a duplicate-hash
// candidate right after a hit, empty and tiny joins — and compare every
// step against a fresh Scratch.

// reuseTrains returns trains sharing one key sequence: two numeric ones
// with different values (byte-equal KeyHashes, since TUPSK samples train
// tuples by key and occurrence only) and a categorical one.
func reuseTrains(t *testing.T) []*Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 2500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", rng.Intn(160))
	}
	var trains []*Sketch
	for v, numeric := range []bool{true, true, false} {
		b, err := NewStreamBuilder(RoleTrain, numeric, Options{Method: TUPSK, Size: 128})
		if err != nil {
			t.Fatal(err)
		}
		vr := rand.New(rand.NewSource(int64(100 + v)))
		for _, key := range keys {
			if numeric {
				b.AddNum(key, float64(len(key)%7)+vr.NormFloat64())
			} else {
				b.AddStr(key, fmt.Sprintf("y%d", vr.Intn(6)))
			}
		}
		trains = append(trains, b.Sketch())
	}
	if !slices.Equal(trains[0].KeyHashes, trains[1].KeyHashes) {
		t.Fatal("numeric trains over one key sequence differ in KeyHashes")
	}
	return trains
}

// reuseCand builds a candidate over keys prefix+"0" .. prefix+(n-1), so
// candidates of one (prefix, n) share their key sample.
func reuseCand(t *testing.T, prefix string, n int, numeric bool, seed int64) *Sketch {
	t.Helper()
	b, err := NewStreamBuilder(RoleCandidate, numeric, Options{Method: TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		key := fmt.Sprintf("%s%d", prefix, k)
		if numeric {
			b.AddNum(key, float64(k%5)+rng.NormFloat64())
		} else {
			b.AddStr(key, fmt.Sprintf("w%d", rng.Intn(4)))
		}
	}
	return b.Sketch()
}

// reuseCands returns candidates covering every case the memo must
// distinguish.
func reuseCands(t *testing.T, train *Sketch) []*Sketch {
	t.Helper()
	var cands []*Sketch
	for g, shape := range []struct {
		prefix string
		n      int
	}{
		{"k", 160}, // the whole train domain
		{"k", 90},  // a different key sample over the same domain
		{"k", 5},   // a join below any sensible min-join cutoff
		{"z", 40},  // keys the train never holds: an empty join
	} {
		for i := 0; i < 3; i++ {
			cands = append(cands, reuseCand(t, shape.prefix, shape.n, true, int64(10*g+i)))
		}
		// The same key sample holding categorical values.
		cands = append(cands, reuseCand(t, shape.prefix, shape.n, false, int64(10*g+5)))
	}
	// Duplicate key hashes: one that joins (JoinScratch must fail) and
	// one that does not (it must succeed), both built from a shared key
	// sample so they differ from it in a single entry.
	base := cands[0]
	if !slices.Contains(base.KeyHashes, train.KeyHashes[0]) {
		t.Fatal("the shared sample misses the train's first key")
	}
	dup := &Sketch{
		Method: base.Method, Role: base.Role, Seed: base.Seed, Size: base.Size,
		Numeric: true, KeyHashes: slices.Clone(base.KeyHashes), Nums: base.Nums,
		SourceRows: base.SourceRows,
	}
	dup.KeyHashes[len(dup.KeyHashes)-1] = train.KeyHashes[0]
	cands = append(cands, dup)
	miss := reuseCand(t, "z", 40, true, 99)
	miss.KeyHashes = slices.Clone(miss.KeyHashes)
	miss.KeyHashes[1] = miss.KeyHashes[0]
	cands = append(cands, miss)
	return cands
}

// sameColumn reports whether two columns hold the same kind and the
// same values bit for bit.
func sameColumn(a, b mi.Column) bool {
	if a.IsNumeric() != b.IsNumeric() || a.Len() != b.Len() {
		return false
	}
	if a.IsNumeric() {
		for i := range a.Num {
			if math.Float64bits(a.Num[i]) != math.Float64bits(b.Num[i]) {
				return false
			}
		}
		return true
	}
	return slices.Equal(a.Str, b.Str)
}

// reuseStep runs one step on the long-lived scratch and on a fresh one
// and fails on any difference; it reports whether the long-lived
// scratch's join was served by its memo. ops selects which consumers
// follow the join, so the memo meets every mix of stale cheap-tier and
// hint state.
func reuseStep(t *testing.T, label string, p *TrainProbe, cand *Sketch, s *Scratch, ops int) bool {
	t.Helper()
	var fresh Scratch
	if ops&1 != 0 {
		if got, want := p.KeyOverlapScratch(cand, s), p.KeyOverlap(cand); got != want {
			t.Fatalf("%s: KeyOverlapScratch = %d, KeyOverlap = %d", label, got, want)
		}
	}
	got, gotErr := p.JoinScratch(cand, s)
	want, wantErr := p.JoinScratch(cand, &fresh)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: join error %v, fresh %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return false
	}
	if want.Reused {
		t.Fatalf("%s: a fresh scratch reported a reused join", label)
	}
	if got.Size != want.Size || !sameColumn(got.X, want.X) || !sameColumn(got.Y, want.Y) {
		t.Fatalf("%s: joined sample differs from a fresh join (size %d vs %d, reused %v)", label, got.Size, want.Size, got.Reused)
	}
	if ops&2 != 0 {
		bins := mi.DefaultCheapBins
		if ops&8 != 0 {
			bins = 5
		}
		g, w := s.MI.CheapMI(got.Y, got.X, bins), fresh.MI.CheapMI(want.Y, want.X, bins)
		if math.Float64bits(g.MI) != math.Float64bits(w.MI) || math.Float64bits(g.Ceil) != math.Float64bits(w.Ceil) {
			t.Fatalf("%s: CheapMI %+v, fresh %+v (reused %v)", label, g, w, got.Reused)
		}
	}
	if ops&4 != 0 {
		g, w := p.EstimateJoined(cand, got, 3, s), p.EstimateJoined(cand, want, 3, &fresh)
		if math.Float64bits(g.MI) != math.Float64bits(w.MI) || g.Estimator != w.Estimator || g.N != w.N {
			t.Fatalf("%s: EstimateJoined %+v, fresh %+v (reused %v)", label, g, w, got.Reused)
		}
	}
	return got.Reused
}

// TestJoinReuseDifferential drives long random interleavings of probes
// and candidates through one Scratch, checking each step against a
// fresh Scratch, and checks that the interleavings did hit the memo.
func TestJoinReuseDifferential(t *testing.T) {
	trains := reuseTrains(t)
	probes := make([]*TrainProbe, len(trains))
	for i, tr := range trains {
		probes[i] = CompileTrainProbe(tr)
	}
	cands := reuseCands(t, trains[0])
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Scratch
		hits := 0
		for step := 0; step < 1500; step++ {
			// Runs of one probe, so equal key samples meet the same
			// probe often enough to hit; every few steps, any probe.
			q := (step / 9) % len(probes)
			if rng.Intn(6) == 0 {
				q = rng.Intn(len(probes))
			}
			c := rng.Intn(len(cands))
			if rng.Intn(3) == 0 {
				c = c / 4 * 4 // favour the first candidate of each key sample
			}
			label := fmt.Sprintf("seed %d step %d probe %d cand %d", seed, step, q, c)
			if reuseStep(t, label, probes[q], cands[c], &s, rng.Intn(16)) {
				hits++
			}
		}
		if hits < 100 {
			t.Fatalf("seed %d: only %d of 1500 joins reused the memo", seed, hits)
		}
	}
}

// TestJoinReuseSameKeysOtherProbe: the memo belongs to the probe that
// made it. A second train with byte-equal KeyHashes and other values
// must re-join, not inherit the first train's column — for the join,
// the cheap tier's train side and the ordering hint alike.
func TestJoinReuseSameKeysOtherProbe(t *testing.T) {
	trains := reuseTrains(t)
	p0, p1 := CompileTrainProbe(trains[0]), CompileTrainProbe(trains[1])
	cand := reuseCand(t, "k", 160, true, 1)
	var s Scratch
	if reuseStep(t, "probe 0", p0, cand, &s, 15) {
		t.Fatal("first join on an empty memo was reused")
	}
	if !reuseStep(t, "probe 0 again", p0, cand, &s, 15) {
		t.Fatal("same probe, same keys: join not reused")
	}
	if reuseStep(t, "probe 1", p1, cand, &s, 15) {
		t.Fatal("a different probe reused another probe's join")
	}
}

// TestJoinReuseNumericThenCategorical: a categorical candidate over the
// same key sample as the memoized numeric one re-joins.
func TestJoinReuseNumericThenCategorical(t *testing.T) {
	trains := reuseTrains(t)
	p := CompileTrainProbe(trains[0])
	num, cat := reuseCand(t, "k", 160, true, 1), reuseCand(t, "k", 160, false, 2)
	if !slices.Equal(num.KeyHashes, cat.KeyHashes) {
		t.Fatal("candidates over one key set differ in KeyHashes")
	}
	var s Scratch
	reuseStep(t, "numeric", p, num, &s, 15)
	if reuseStep(t, "categorical", p, cat, &s, 15) {
		t.Fatal("a categorical candidate reused a numeric candidate's join")
	}
	if !reuseStep(t, "categorical again", p, cat, &s, 15) {
		t.Fatal("categorical candidate with the memoized keys: join not reused")
	}
}

// TestJoinReuseDuplicateAfterHit: a candidate with a joining duplicate
// hash right after a hit still fails, and leaves the memo empty.
func TestJoinReuseDuplicateAfterHit(t *testing.T) {
	trains := reuseTrains(t)
	p := CompileTrainProbe(trains[0])
	cands := reuseCands(t, trains[0])
	dup := cands[len(cands)-2]
	var s Scratch
	reuseStep(t, "first", p, cands[0], &s, 15)
	if !reuseStep(t, "hit", p, cands[1], &s, 15) {
		t.Fatal("shared key sample: join not reused")
	}
	if _, err := p.JoinScratch(dup, &s); err == nil || !strings.Contains(err.Error(), "duplicate key hash") {
		t.Fatalf("duplicate after a hit: got %v, want duplicate-hash error", err)
	}
	if s.memoProbe != nil {
		t.Fatal("a failed join left the memo set")
	}
	if reuseStep(t, "after the failure", p, cands[1], &s, 15) {
		t.Fatal("join reused after a failed join")
	}
}

// TestJoinReuseEmptyAndTiny: empty and tiny joins are memoized like any
// other, keep the candidate's column kind, and report their overlap.
func TestJoinReuseEmptyAndTiny(t *testing.T) {
	trains := reuseTrains(t)
	for _, shape := range []struct {
		prefix string
		n      int
		size   int
	}{{"z", 40, 0}, {"k", 5, -1}} {
		for _, numeric := range []bool{true, false} {
			p := CompileTrainProbe(trains[2])
			a, b := reuseCand(t, shape.prefix, shape.n, numeric, 1), reuseCand(t, shape.prefix, shape.n, numeric, 2)
			var s Scratch
			label := fmt.Sprintf("%s%d numeric=%v", shape.prefix, shape.n, numeric)
			reuseStep(t, label, p, a, &s, 15)
			if !reuseStep(t, label+" again", p, b, &s, 15) {
				t.Fatalf("%s: join not reused", label)
			}
			js, err := p.JoinScratch(b, &s)
			if err != nil {
				t.Fatal(err)
			}
			if shape.size >= 0 && js.Size != shape.size {
				t.Fatalf("%s: size %d, want %d", label, js.Size, shape.size)
			}
			if js.X.IsNumeric() != numeric || js.Y.IsNumeric() {
				t.Fatalf("%s: column kinds X numeric=%v Y numeric=%v", label, js.X.IsNumeric(), js.Y.IsNumeric())
			}
		}
	}
}

// TestJoinReuseMemoOwnership: the memo holds its own copy of the key
// sample, and ScratchPool.Put drops it so no probe or key copy
// outlives the query.
func TestJoinReuseMemoOwnership(t *testing.T) {
	trains := reuseTrains(t)
	p := CompileTrainProbe(trains[0])
	cand := reuseCand(t, "k", 160, true, 1)
	var pool ScratchPool
	s := pool.Get()
	if _, err := p.JoinScratch(cand, s); err != nil {
		t.Fatal(err)
	}
	if s.memoProbe != p || len(s.memoKeys) != len(cand.KeyHashes) || &s.memoKeys[0] == &cand.KeyHashes[0] {
		t.Fatal("memo does not hold an owned copy of the candidate's keys")
	}
	pool.Put(s)
	if s.memoProbe != nil || len(s.memoKeys) != 0 {
		t.Fatal("ScratchPool.Put kept the join memo")
	}
}

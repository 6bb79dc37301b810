package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"misketch/internal/core"
)

// TestRankQueryMinMI pins the MinMI contract: for any floor τ, top-K
// bound and worker count, RankQuery with MinMI τ returns exactly the
// NoCascade+NoIndex reference ranking cut at the first row below τ, and
// seeding the cascade bound with τ never costs more exact-tier runs
// than ranking without it. Zero keeps the unfloored behaviour, counters
// included. The cascade fixture covers every estimator family; the
// shard fixture is one third of the bench catalog, whose local 10th MI
// sits far below its best, so there a high floor must save exact runs.
func TestRankQueryMinMI(t *testing.T) {
	st, trains := cascadeStore(t, 60)
	checkMinMI(t, st, trains, "casc/")
	shard, train := benchShardStore(t, 200)
	if !checkMinMI(t, shard, []*core.Sketch{train}, "bench/") {
		t.Fatal("no floor saved a single exact run on the shard fixture")
	}
}

// checkMinMI runs the MinMI differential over trains and reports
// whether any floor saved an exact-tier run.
func checkMinMI(t *testing.T, st *Store, trains []*core.Sketch, prefix string) (saved bool) {
	t.Helper()
	ctx := context.Background()
	for q, train := range trains {
		oracle, _, err := st.RankQuery(ctx, train, RankOptions{
			Prefix: prefix, MinJoinSize: 30, K: 3, NoCascade: true, NoIndex: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(oracle) < 12 {
			t.Fatalf("train %d: degenerate fixture, %d ranked", q, len(oracle))
		}
		taus := []float64{
			0,
			1e-9,
			oracle[len(oracle)/2].MI,
			oracle[9].MI,                      // exactly a ranked value: ties at the floor stay
			(oracle[3].MI + oracle[4].MI) / 2, // between two values
			oracle[0].MI,                      // only the best survives
			math.Nextafter(oracle[0].MI, math.Inf(1)), // nothing survives
		}
		for _, tau := range taus {
			cut := sort.Search(len(oracle), func(i int) bool { return oracle[i].MI < tau })
			for _, topK := range []int{1, 5, 10, 0} {
				want := oracle[:cut]
				if topK > 0 && len(want) > topK {
					want = want[:topK]
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%strain %d tau=%g topK=%d workers=%d", prefix, q, tau, topK, workers)
					opt := RankOptions{Prefix: prefix, MinJoinSize: 30, K: 3, TopK: topK, Workers: workers}
					pre := st.Stats()
					if _, _, err := st.RankQuery(ctx, train, opt); err != nil {
						t.Fatal(err)
					}
					mid := st.Stats()
					opt.MinMI = tau
					got, _, err := st.RankQuery(ctx, train, opt)
					if err != nil {
						t.Fatal(err)
					}
					post := st.Stats()
					diffRankings(t, label, got, want)
					if workers != 1 {
						continue // the exact count depends on scheduling
					}
					without := mid.CascadeExact - pre.CascadeExact
					with := post.CascadeExact - mid.CascadeExact
					if tau == 0 && (with != without || post.CascadeCheapOnly-mid.CascadeCheapOnly != mid.CascadeCheapOnly-pre.CascadeCheapOnly) {
						t.Fatalf("%s: MinMI 0 changed the cascade counters", label)
					}
					if with > without {
						t.Fatalf("%s: %d exact runs with the floor, %d without", label, with, without)
					}
					if with < without {
						saved = true
					}
				}
			}
		}
	}
	return saved
}

// benchShardStore is every third candidate of the bench catalog (a
// planted cohort at graded noise, marginal stragglers, an independent
// bulk): what one of three shards holds.
func benchShardStore(t testing.TB, nCand int) (*Store, *core.Sketch) {
	t.Helper()
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{Backend: BackendMem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(17))
	opt := core.Options{Method: core.TUPSK, Size: 256}
	signal := func(g int) float64 { return float64(g % 20) }
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		g := rng.Intn(400)
		tb.AddNum(fmt.Sprintf("g%d", g), signal(g)+0.25*rng.NormFloat64())
	}
	for c := 0; c < 3*nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 400; g++ {
			v := rng.NormFloat64()
			switch c % 64 {
			case 0:
				v = signal(g) + (0.08+0.035*float64(c/64))*v
			case 1:
				v = signal(g) + (1.0+float64(c/64))*v
			}
			cb.AddNum(fmt.Sprintf("g%d", g), v)
		}
		if c%3 == 0 {
			if err := st.Put(fmt.Sprintf("bench/t%04d#x", c), cb.Sketch()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st, tb.Sketch()
}

// TestRankBatchMinMI: the batch path honours the floor per train exactly
// as RankQuery does.
func TestRankBatchMinMI(t *testing.T) {
	st, trains := cascadeStore(t, 48)
	ctx := context.Background()
	opt := BatchOptions{Prefix: "casc/", MinJoinSize: 30, K: 3, TopK: 8, Workers: 2}
	all, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MinMI = all.Queries[0].Ranked[4].MI
	got, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	for q := range trains {
		want := all.Queries[q].Ranked
		want = want[:sort.Search(len(want), func(i int) bool { return want[i].MI < opt.MinMI })]
		diffRankings(t, fmt.Sprintf("train %d", q), got.Queries[q].Ranked, want)
	}
}

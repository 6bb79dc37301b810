package store

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"misketch/internal/core"
)

// wideTableStore builds a sealed "wide table" catalog: groups of 8
// candidates, each group the feature columns of one lake table and so
// sharing one key column — and, the sketches being coordinated, one key
// sample. Groups differ in how their keys meet the trains' (the whole
// domain, a shifted window, a sliver at or below the min-join cutoff,
// nothing at all), and each mixes numeric columns of graded dependence
// with categorical ones. The three trains share their key rows: two
// numeric ones with different values (byte-equal key samples) and a
// categorical one.
func wideTableStore(t *testing.T) (*Store, []*core.Sketch) {
	t.Helper()
	const rows, domain = 3000, 300
	opt := core.Options{Method: core.TUPSK, Size: 128}
	rng := rand.New(rand.NewSource(41))
	signal := func(g int) float64 { return float64(g % 13) }
	keys := make([]int, rows)
	for i := range keys {
		keys[i] = rng.Intn(domain)
	}
	var trains []*core.Sketch
	for v, numeric := range []bool{true, true, false} {
		b, err := core.NewStreamBuilder(core.RoleTrain, numeric, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range keys {
			key := fmt.Sprintf("r%d", g)
			if numeric {
				b.AddNum(key, signal(g)+float64(v+1)*0.3*rng.NormFloat64())
			} else {
				b.AddStr(key, fmt.Sprintf("L%d", (g+rng.Intn(2))%7))
			}
		}
		trains = append(trains, b.Sketch())
	}

	var names []string
	var cands []*core.Sketch
	for grp := 0; grp < 24; grp++ {
		lo, hi := 0, domain
		switch grp % 4 {
		case 1:
			lo, hi = 7*grp, 7*grp+200
		case 2:
			lo, hi = domain-12, domain+150 // a few shared keys only
		case 3:
			lo, hi = 5000, 5200 // never joins
		}
		for c := 0; c < 8; c++ {
			numeric := c < 6
			b, err := core.NewStreamBuilder(core.RoleCandidate, numeric, opt)
			if err != nil {
				t.Fatal(err)
			}
			for g := lo; g < hi; g++ {
				key := fmt.Sprintf("r%d", g)
				switch {
				case !numeric && c == 6:
					b.AddStr(key, fmt.Sprintf("v%d", (g+grp)%5))
				case !numeric:
					b.AddStr(key, fmt.Sprintf("v%d", rng.Intn(5)))
				case c < 3:
					b.AddNum(key, signal(g)+(0.2+0.15*float64(c+grp%3))*rng.NormFloat64())
				default:
					b.AddNum(key, rng.NormFloat64())
				}
			}
			names = append(names, fmt.Sprintf("wide/t%02d#c%d", grp, c))
			cands = append(cands, b.Sketch())
		}
	}
	return sealedStore(t, names, cands, false), trains
}

// TestJoinReuseWideTable is the store-level differential for the join
// memo: on a catalog where consecutive candidates share key samples,
// RankQuery per train and a 3-train RankBatch must return rankings,
// Pruned counts and Skipped lists bit-identical to the NoCascade/NoIndex
// oracle, across top-K bounds and worker counts — and the memo must
// actually serve joins.
func TestJoinReuseWideTable(t *testing.T) {
	st, trains := wideTableStore(t)
	ctx := context.Background()
	const minJoin = 20
	before := st.Stats().RankJoinReuses
	for _, topK := range []int{1, 5, 20, 0} {
		for _, workers := range []int{1, 2, 3} {
			label := fmt.Sprintf("topK=%d workers=%d", topK, workers)
			opt := BatchOptions{Prefix: "wide/", MinJoinSize: minJoin, K: 3, TopK: topK, Workers: workers}
			oracleOpt := opt
			oracleOpt.NoCascade, oracleOpt.NoIndex = true, true
			want, err := st.RankBatch(ctx, trains, oracleOpt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.RankBatch(ctx, trains, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Skipped, want.Skipped) {
				t.Fatalf("%s: skipped %v, oracle %v", label, got.Skipped, want.Skipped)
			}
			for q := range trains {
				w := want.Queries[q]
				if len(w.Ranked) == 0 || w.Pruned == 0 {
					t.Fatalf("%s train %d: degenerate fixture (%d ranked, %d pruned)", label, q, len(w.Ranked), w.Pruned)
				}
				diffRankings(t, fmt.Sprintf("%s batch train %d", label, q), got.Queries[q].Ranked, w.Ranked)
				if got.Queries[q].Pruned != w.Pruned {
					t.Fatalf("%s train %d: pruned %d, oracle %d", label, q, got.Queries[q].Pruned, w.Pruned)
				}
				ranked, skipped, err := st.RankQuery(ctx, trains[q], RankOptions{
					Prefix: "wide/", MinJoinSize: minJoin, K: 3, TopK: topK, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				diffRankings(t, fmt.Sprintf("%s RankQuery train %d", label, q), ranked, w.Ranked)
				if !slices.Equal(skipped, want.Skipped) {
					t.Fatalf("%s RankQuery train %d: skipped %v, oracle %v", label, q, skipped, want.Skipped)
				}
			}
		}
	}
	if st.Stats().RankJoinReuses == before {
		t.Fatal("no ranking join reused the previous one on a catalog of shared key samples")
	}
}

// TestCompareTasksMatchesNameOrder: phase 2 orders tasks by candidate
// index instead of name. On an eligible list in name order with unique
// names the two orders agree, ties on the cheap score included.
func TestCompareTasksMatchesNameOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		names := make([]string, 1+rng.Intn(40))
		for i := range names {
			names[i] = fmt.Sprintf("n%03d", rng.Intn(1000))
		}
		slices.Sort(names)
		names = slices.Compact(names)
		var tasks []cascadeTask
		for ci := range names {
			for q := 0; q < 3; q++ {
				if rng.Intn(3) == 0 {
					continue
				}
				tasks = append(tasks, cascadeTask{
					ci:     int32(ci),
					q:      int32(q),
					cheap:  float64(rng.Intn(4)) / 4, // few distinct scores: many ties
					exempt: rng.Intn(8) == 0,
				})
			}
		}
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		// The name-based order phase 2 used before.
		byName := slices.Clone(tasks)
		sort.Slice(byName, func(a, b int) bool {
			pa, pb := byName[a].prio(), byName[b].prio()
			if pa != pb {
				return pa > pb
			}
			na, nb := names[byName[a].ci], names[byName[b].ci]
			if na != nb {
				return na < nb
			}
			return byName[a].q < byName[b].q
		})
		slices.SortFunc(tasks, compareTasks)
		if !slices.Equal(tasks, byName) {
			t.Fatalf("trial %d: index order %v differs from name order %v", trial, tasks, byName)
		}
	}
}

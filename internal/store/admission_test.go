package store

// Admission snapshot tests. A ranking query reuses the cached admission
// snapshot until a mutation drops it (rankindex.go), so the snapshot's
// correctness is exactly "every query answers as if it had walked the
// manifest itself": the differential interleaves every kind of catalog
// change with queries and holds each answer to the NoIndex oracle and
// to a freshly opened copy of the store; the hammer races queries
// against writers and compaction under -race; the allocation test pins
// per-query cost to the visited candidates, not the catalog.

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"misketch/internal/core"
)

// admitAnswer is everything a query reports that the snapshot feeds.
type admitAnswer struct {
	ranked  []RankedSketch // RankQuery, first train, every candidate
	skipped []string
	single  BatchQueryResult   // RankBatch of the first train alone
	batch   []BatchQueryResult // RankBatch of every train
}

const admitMinJoin = 20

func admitQuery(t *testing.T, st *Store, trains []*core.Sketch, noIndex bool) admitAnswer {
	t.Helper()
	ctx := context.Background()
	var a admitAnswer
	var err error
	a.ranked, a.skipped, err = st.RankQuery(ctx, trains[0], RankOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3, NoIndex: noIndex})
	if err != nil {
		t.Fatal(err)
	}
	opt := BatchOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3, NoIndex: noIndex}
	single, err := st.RankBatch(ctx, trains[:1], opt)
	if err != nil {
		t.Fatal(err)
	}
	a.single = single.Queries[0]
	all, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	a.batch = all.Queries
	return a
}

func sameRanked(a, b []RankedSketch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].JoinSize != b[i].JoinSize || a[i].Estimator != b[i].Estimator ||
			math.Float64bits(a[i].MI) != math.Float64bits(b[i].MI) {
			return false
		}
	}
	return true
}

func sameAnswer(a, b admitAnswer) bool {
	if !sameRanked(a.ranked, b.ranked) || !reflect.DeepEqual(a.skipped, b.skipped) ||
		a.single.Pruned != b.single.Pruned || !sameRanked(a.single.Ranked, b.single.Ranked) ||
		len(a.batch) != len(b.batch) {
		return false
	}
	for q := range a.batch {
		if a.batch[q].Pruned != b.batch[q].Pruned || !sameRanked(a.batch[q].Ranked, b.batch[q].Ranked) {
			return false
		}
	}
	return true
}

// copyStoreDir copies a flushed store directory so a second handle can
// open it without touching the live one.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestAdmissionSnapshotDifferential interleaves every catalog change
// the snapshot must notice — overwrite, new name, delete, compaction,
// segment rolls by append and by Close, RebuildManifest, and a write
// outside the prefix it must not notice — with queries. Each answer
// (rankings, Pruned, Skipped) must be bit-identical to the NoIndex
// oracle and to a freshly opened copy, and an indexed query on a fully
// sealed catalog decodes exactly the matching candidates.
func TestAdmissionSnapshotDifferential(t *testing.T) {
	names, cands, trains := diffSketches(t, 90, 2)
	dir := t.TempDir()
	// A small roll threshold makes appends seal segments mid-run; the
	// cache is off so decodes count visited candidates exactly.
	st, err := OpenWithOptions(dir, OpenOptions{SegmentBytes: 48 << 10, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	live := map[string]*core.Sketch{}
	put := func(name string, sk *core.Sketch) {
		t.Helper()
		if err := st.Put(name, sk); err != nil {
			t.Fatal(err)
		}
		live[name] = sk
	}
	for i, name := range names {
		put(name, cands[i])
	}
	// Prefix-matching sketches a query must report as skipped.
	put("c_seed", numericCandidate(t, core.Options{Method: core.TUPSK, Size: 128, Seed: 99}, 1))
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, core.Options{Method: core.TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 50; g++ {
		tb.AddNum(fmt.Sprintf("g%d", g), float64(g))
	}
	put("c_train", tb.Sketch())

	// matching counts the live, rankable candidates joining the first
	// train above the cutoff: what a fully indexed query decodes.
	matching := func() int64 {
		n := int64(0)
		for name, sk := range live {
			if strings.HasPrefix(name, "c") && sk.Role == core.RoleCandidate && sk.Seed == trains[0].Seed && core.KeyOverlap(trains[0], sk) > admitMinJoin {
				n++
			}
		}
		return n
	}

	check := func(step string) {
		t.Helper()
		got := admitQuery(t, st, trains, false)
		if want := admitQuery(t, st, trains, true); !sameAnswer(got, want) {
			t.Fatalf("%s: indexed answer diverges from the NoIndex oracle:\n got %+v\nwant %+v", step, got, want)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(copyStoreDir(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if want := admitQuery(t, fresh, trains, false); !sameAnswer(got, want) {
			t.Fatalf("%s: answer diverges from a freshly opened copy:\n got %+v\nwant %+v", step, got, want)
		}
		if len(got.skipped) != 2 {
			t.Fatalf("%s: skipped %v, want the other-seed and train-role sketches", step, got.skipped)
		}
	}
	// sealedDecodes asserts that, with every record sealed and indexed,
	// an indexed query decodes exactly the matching candidates.
	sealedDecodes := func(step string) {
		t.Helper()
		if ss := st.Stats(); ss.IndexedSegments != ss.Segments {
			t.Fatalf("%s: %d of %d segments indexed, want all", step, ss.IndexedSegments, ss.Segments)
		}
		before := st.Stats().DiskReads
		if _, _, err := st.RankQuery(context.Background(), trains[0], RankOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3}); err != nil {
			t.Fatal(err)
		}
		if got, want := st.Stats().DiskReads-before, matching(); got != want {
			t.Fatalf("%s: query decoded %d candidates, want the %d matching ones", step, got, want)
		}
	}
	if st.Stats().Segments < 2 {
		t.Fatalf("fixture rolled no segment: %+v", st.Stats())
	}
	check("initial")

	put(names[3], cands[40]) // overwrite with another candidate's content
	check("overwrite")
	put("c_new", cands[7])
	check("new name")
	if err := st.Delete(names[5]); err != nil {
		t.Fatal(err)
	}
	delete(live, names[5])
	check("delete")

	if _, err := st.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("compact")
	sealedDecodes("after compaction")

	// A compaction with nothing to roll first: only the manifest
	// rewrite can tell the snapshot its segments are gone.
	put("c_pre", cands[12])
	if err := st.Close(); err != nil { // seals the active segment; the handle stays usable
		t.Fatal(err)
	}
	check("before a roll-free compaction")
	if _, err := st.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	sealedDecodes("after a roll-free compaction")
	check("roll-free compaction")

	// Prefix candidates land in the active segment, a query caches a
	// snapshot that must visit them unindexed, then writes outside the
	// prefix (which never drop the snapshot) roll the segment: the seal
	// alone must make the next query use the new index.
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("c_roll%02d", i), cands[(i*7)%len(cands)])
	}
	check("appends before the roll")
	for i := 0; st.Stats().IndexedSegments != st.Stats().Segments; i++ {
		put(fmt.Sprintf("zz/roll%03d", i), cands[i%len(cands)])
		if i > 200 {
			t.Fatal("appends never rolled the active segment")
		}
	}
	sealedDecodes("roll by append")
	check("roll by append")
	put("c_tail", cands[11])
	check("before close")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sealedDecodes("roll by close")
	check("roll by close")

	put(names[8], cands[60])
	check("before rebuild")
	if err := st.RebuildManifest(); err != nil {
		t.Fatal(err)
	}
	check("rebuild")

	// A write outside the prefix leaves the snapshot in place.
	if _, err := st.RankBatch(context.Background(), trains, BatchOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3}); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	put("zz/outside", cands[0])
	check("write outside the prefix")
	if after := st.Stats(); after.RankAdmissionBuilds != before.RankAdmissionBuilds || after.RankAdmissionReuses <= before.RankAdmissionReuses {
		t.Fatalf("a write outside the prefix rebuilt the snapshot: builds %d→%d, reuses %d→%d",
			before.RankAdmissionBuilds, after.RankAdmissionBuilds, before.RankAdmissionReuses, after.RankAdmissionReuses)
	}
}

// TestAdmissionSnapshotReuse pins the counters: a repeated query reuses
// the snapshot, another key (prefix, or keep-empty) rebuilds it, and a
// write under the prefix drops it.
func TestAdmissionSnapshotReuse(t *testing.T) {
	names, cands, trains := diffSketches(t, 20, 1)
	st := sealedStore(t, names, cands, false)
	ctx := context.Background()
	rank := func(prefix string, minJoin int) {
		t.Helper()
		if _, _, err := st.RankQuery(ctx, trains[0], RankOptions{Prefix: prefix, MinJoinSize: minJoin, K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(builds, reuses int64) {
		t.Helper()
		if ss := st.Stats(); ss.RankAdmissionBuilds != builds || ss.RankAdmissionReuses != reuses {
			t.Fatalf("admission builds/reuses = %d/%d, want %d/%d", ss.RankAdmissionBuilds, ss.RankAdmissionReuses, builds, reuses)
		}
	}
	rank("c", 10)
	rank("c", 10)
	rank("c", 5)
	want(1, 2)
	rank("c0", 10)
	want(2, 2)
	rank("c0", -1) // keeps empty sketches: another admission
	want(3, 2)
	rank("c0", -1)
	want(3, 3)
	if err := st.Put("c000", cands[1]); err != nil {
		t.Fatal(err)
	}
	rank("c0", -1)
	want(4, 3)

	// Skipped lists are the caller's: scribbling on one must not reach
	// the snapshot the next query reuses.
	if err := st.Put("c_seed", numericCandidate(t, core.Options{Method: core.TUPSK, Size: 128, Seed: 99}, 1)); err != nil {
		t.Fatal(err)
	}
	_, skipped, err := st.RankQuery(ctx, trains[0], RankOptions{Prefix: "c", K: 3})
	if err != nil || len(skipped) != 1 {
		t.Fatalf("skipped %v, err %v: want the other-seed sketch", skipped, err)
	}
	skipped[0] = "scribbled"
	if _, skipped, _ = st.RankQuery(ctx, trains[0], RankOptions{Prefix: "c", K: 3}); !reflect.DeepEqual(skipped, []string{"c_seed"}) {
		t.Fatalf("reused snapshot returned skipped %v, want [c_seed]", skipped)
	}
	want(5, 4)
}

// TestAdmissionRebuildDropsSnapshot: RebuildManifest swaps in a new
// backend whose seal epoch restarts at zero, so only the explicit drop
// keeps a query from reusing a snapshot over the abandoned segments.
func TestAdmissionRebuildDropsSnapshot(t *testing.T) {
	names, cands, trains := diffSketches(t, 40, 1)
	st := sealedStore(t, names, cands, false) // reopened: nothing sealed by this handle
	if err := st.Put(names[0], cands[1]); err != nil {
		t.Fatal(err) // dirty: the rebuild below repairs instead of verifying
	}
	opt := RankOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3}
	if _, _, err := st.RankQuery(context.Background(), trains[0], opt); err != nil {
		t.Fatal(err)
	}
	if err := st.RebuildManifest(); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().RankAdmissionBuilds
	got := admitQuery(t, st, trains, false)
	if st.Stats().RankAdmissionBuilds == before {
		t.Fatal("the first query after a rebuild reused the old backend's snapshot")
	}
	if want := admitQuery(t, st, trains, true); !sameAnswer(got, want) {
		t.Fatalf("after rebuild: indexed answer diverges from the NoIndex oracle")
	}
}

// TestAdmissionRaceHammer races ranking queries against Put, Delete and
// Compact under the race detector. The writers only touch prefix-
// matching names that never join the train, so every snapshot they
// drop is rebuilt while the ranking itself must not move: each answer
// is bit-identical to the one before the hammer.
func TestAdmissionRaceHammer(t *testing.T) {
	names, cands, trains := diffSketches(t, 60, 1)
	st, err := OpenWithOptions(t.TempDir(), OpenOptions{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, name := range names {
		if err := st.Put(name, cands[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Candidates keyed outside the train's key universe.
	var noise []*core.Sketch
	for v := 0; v < 4; v++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 128})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 60; g++ {
			cb.AddNum(fmt.Sprintf("far%d", g), float64(g*v))
		}
		noise = append(noise, cb.Sketch())
	}
	ctx := context.Background()
	opt := RankOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3, TopK: 8}
	want, _, err := st.RankQuery(ctx, trains[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate fixture: empty ranking")
	}

	const rounds = 60
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(2)
	go func() { // writer: overwrites, new names, deletes
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("c_noise%d", i%5)
			if err := st.Put(name, noise[i%len(noise)]); err != nil {
				errc <- err
				return
			}
			if i%3 == 2 {
				if err := st.Delete(name); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := st.Compact(ctx); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/2; i++ {
				got, _, err := st.RankQuery(ctx, trains[0], opt)
				if err != nil {
					errc <- err
					return
				}
				if !sameRanked(got, want) {
					errc <- fmt.Errorf("ranking moved under non-joining writes:\n got %+v\nwant %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if ss := st.Stats(); ss.RankAdmissionBuilds < 2 {
		t.Fatalf("the hammer rebuilt the snapshot %d times; the writers should have dropped it", ss.RankAdmissionBuilds)
	}
}

// allocCatalog builds a sealed store of nCand candidates of which the
// first 100 join the returned train; the rest sit on disjoint keys.
func allocCatalog(t *testing.T, nCand int) (*Store, *core.Sketch) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Method: core.TUPSK, Size: 32}
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 40; g++ {
		tb.AddNum(fmt.Sprintf("m%d", g), float64(g%7))
	}
	for c := 0; c < nCand; c++ {
		cb, err := core.NewStreamBuilder(core.RoleCandidate, true, opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 40; g++ {
			key := fmt.Sprintf("m%d", g)
			if c >= 100 {
				key = fmt.Sprintf("u%d_%d", c, g)
			}
			cb.AddNum(key, float64((g*(c+3))%11))
		}
		if err := st.Put(fmt.Sprintf("a/%05d", c), cb.Sketch()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, tb.Sketch()
}

// TestRankAllocsIndependentOfCatalog: an indexed query visiting 100
// candidates allocates (nearly) the same bytes on a 5k-candidate
// catalog as on a 1k one — per-query work no longer copies or walks
// the catalog.
func TestRankAllocsIndependentOfCatalog(t *testing.T) {
	perQuery := func(n int) float64 {
		st, train := allocCatalog(t, n)
		ctx := context.Background()
		opt := RankOptions{Prefix: "a/", MinJoinSize: 5, K: 3, TopK: 10, Workers: 1, Probe: core.CompileTrainProbe(train)}
		query := func() {
			ranked, _, err := st.RankQuery(ctx, train, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked) != 10 {
				t.Fatalf("ranked %d, want 10", len(ranked))
			}
		}
		for i := 0; i < 3; i++ {
			query() // builds the snapshot and warms the caches
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		if ss := st.Stats(); ss.CandidatesSkippedNoDecode < int64(runs*(n-100)) {
			t.Fatalf("index excluded %d candidates, want the %d non-matching ones per query", ss.CandidatesSkippedNoDecode, n-100)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perQuery(1000), perQuery(5000)
	t.Logf("bytes/query: 1k catalog %.0f, 5k catalog %.0f", small, large)
	if large > 1.5*small {
		t.Fatalf("bytes/query grew %.2fx from a 1k to a 5k catalog (%.0f → %.0f), want <= 1.5x", large/small, small, large)
	}
}

// midQueryCtx runs f the first time the query reads Done — after
// admission and selection, before any candidate loads — so a test can
// land a mutation in exactly that window.
type midQueryCtx struct {
	context.Context
	once sync.Once
	f    func()
}

func (c *midQueryCtx) Done() <-chan struct{} {
	c.once.Do(c.f)
	return c.Context.Done()
}

// TestIndexedCandidateOverwrittenMidQuery: the index selects a joining
// candidate, then an overwrite with a compatible but non-joining
// version lands before the worker loads it, and the cache hands the
// worker the new version. Phase 1 skipped the key-overlap probe for the
// index-certified pair, so the join itself must count the pair pruned:
// the answer equals the next quiescent query's, Pruned included.
func TestIndexedCandidateOverwrittenMidQuery(t *testing.T) {
	names, cands, trains := diffSketches(t, 40, 1)
	st := sealedStore(t, names, cands, false)
	victim := ""
	for i, sk := range cands {
		if core.KeyOverlap(trains[0], sk) > admitMinJoin {
			victim = names[i]
			break
		}
	}
	if victim == "" {
		t.Fatal("degenerate fixture: no candidate joins the train")
	}
	cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 60; g++ {
		cb.AddNum(fmt.Sprintf("far%d", g), float64(g))
	}
	far := cb.Sketch()

	opt := BatchOptions{Prefix: "c", MinJoinSize: admitMinJoin, K: 3}
	ctx := &midQueryCtx{Context: context.Background(), f: func() {
		if err := st.Put(victim, far); err != nil {
			t.Error(err)
		}
	}}
	raced, err := st.RankBatch(ctx, trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := st.RankBatch(context.Background(), trains, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range raced.Queries[0].Ranked {
		if rs.Name == victim {
			t.Fatalf("the overwritten candidate %s was ranked: %+v", victim, rs)
		}
	}
	if got, want := raced.Queries[0], quiet.Queries[0]; got.Pruned != want.Pruned || !sameRanked(got.Ranked, want.Ranked) {
		t.Fatalf("mid-query overwrite: pruned %d ranked %d, quiescent query pruned %d ranked %d",
			got.Pruned, len(got.Ranked), want.Pruned, len(want.Ranked))
	}
}

package cluster

// Two-round threshold scatter tests. The differential is the same as
// TestClusterRankMatchesSingleNode — every merged ranking must be bit
// for bit what one node ranks over the union catalog — run over shard
// counts, top-K bounds and the cases the round-2 certificate has to
// survive: a shard too small to fill its round-1 share, MI ties at τ
// across shards, a write between the rounds, a shard lost between the
// rounds, and a name stored on two shards.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"misketch/internal/core"
	"misketch/internal/server"
	"misketch/internal/store"
)

// gradedCandidate is a candidate whose dependence on the graded train
// weakens with variant; every fourth variant is pure noise. Equal
// variants give bit-identical sketches, hence exactly tied MIs.
func gradedCandidate(t testing.TB, variant int) *core.Sketch {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000 + variant)))
	cb, err := core.NewStreamBuilder(core.RoleCandidate, true, core.Options{Method: core.TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 200; g++ {
		v := rng.NormFloat64()
		if variant%4 != 3 {
			v = float64(g%20) + (0.05+0.05*float64(variant))*v
		}
		cb.AddNum(fmt.Sprintf("g%d", g), v)
	}
	return cb.Sketch()
}

// newGradedCluster is newTestCluster over a graded corpus: candidate c
// has content gradedCandidate(variant(c)) and lives on shard deal(c).
// The train depends on the key, so MIs spread from strong to none.
func newGradedCluster(t testing.TB, nShards, nCand int, deal, variant func(c int) int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	openMem := func() *store.Store {
		st, err := store.OpenWithOptions(t.TempDir(), store.OpenOptions{Backend: store.BackendMem})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	tc.unionSt = openMem()
	for i := 0; i < nShards; i++ {
		tc.shardSts = append(tc.shardSts, openMem())
	}
	rng := rand.New(rand.NewSource(11))
	tb, err := core.NewStreamBuilder(core.RoleTrain, true, core.Options{Method: core.TUPSK, Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		g := rng.Intn(200)
		tb.AddNum(fmt.Sprintf("g%d", g), float64(g%20)+0.2*rng.NormFloat64())
	}
	tc.train = tb.Sketch()
	for c := 0; c < nCand; c++ {
		sk := gradedCandidate(t, variant(c))
		name := fmt.Sprintf("corpus/c%03d", c)
		if err := tc.unionSt.Put(name, sk); err != nil {
			t.Fatal(err)
		}
		if err := tc.shardSts[deal(c)].Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	tc.union = httptest.NewServer(server.New(tc.unionSt, server.Options{}))
	t.Cleanup(tc.union.Close)
	for _, st := range tc.shardSts {
		ts := httptest.NewServer(server.New(st, server.Options{}))
		tc.shards = append(tc.shards, ts)
		t.Cleanup(ts.Close)
	}
	return tc
}

// putBoth stores sk under name on one shard and in the union.
func (tc *testCluster) putBoth(t testing.TB, shard int, name string, sk *core.Sketch) {
	t.Helper()
	if err := tc.shardSts[shard].Put(name, sk); err != nil {
		t.Fatal(err)
	}
	if err := tc.unionSt.Put(name, sk); err != nil {
		t.Fatal(err)
	}
}

// assertMatchesAt ranks req at every top through the coordinator and
// the union node and requires identical rankings. It returns how many
// of the requests the two-round path answered.
func assertMatchesAt(t *testing.T, tc *testCluster, c *Coordinator, tops []int) int64 {
	t.Helper()
	before := c.Stats().Coordinator.RankTwoRound
	for _, top := range tops {
		req := tc.rankRequest(t, top)
		want := tc.singleNodeRank(t, req)
		got, err := c.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("top=%d: %v", top, err)
		}
		if got.Partial || len(got.ShardErrors) != 0 {
			t.Fatalf("top=%d: unexpected shard errors: %+v", top, got.ShardErrors)
		}
		assertIdenticalRanked(t, got.Ranked, want.Ranked)
	}
	return c.Stats().Coordinator.RankTwoRound - before
}

var twoRoundTops = []int{1, 2, 3, 5, 10, 12, 1000}

// TestClusterTwoRoundMatchesSingleNode is the differential over shard
// counts and top-K bounds. A top beyond the catalog cannot fill round 1
// and must fall back; every other top must take two rounds.
func TestClusterTwoRoundMatchesSingleNode(t *testing.T) {
	const nCand = 40
	for _, s := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", s), func(t *testing.T) {
			tc := newGradedCluster(t, s, nCand, func(c int) int { return c % s }, func(c int) int { return c })
			c := tc.coordinator(t, Options{})
			if n := assertMatchesAt(t, tc, c, twoRoundTops); n != int64(len(twoRoundTops)-1) {
				t.Fatalf("two rounds answered %d of %d requests", n, len(twoRoundTops)-1)
			}
			st := c.Stats().Coordinator
			if st.RankTwoRoundFallbacks != 1 || st.RankRequests != int64(len(twoRoundTops)) {
				t.Fatalf("stats %+v: want 1 fallback (top=1000) over %d requests", st, len(twoRoundTops))
			}
		})
	}
}

// TestClusterTwoRoundSmallShard: a shard holding fewer candidates than
// its round-1 share ⌈K/S⌉ still yields the exact top K; when the union
// of round 1 cannot reach K the query falls back.
func TestClusterTwoRoundSmallShard(t *testing.T) {
	// Round 1 at top 10 gathers 4 + 4 + 2 = 10 rows, enough for two
	// rounds; at top 11 and 12 it gathers 4 + 4 + 2 = 10 rows and falls
	// back, as does top 1000.
	for _, strong := range []bool{true, false} {
		// Shard 2 holds only the two strongest candidates, or only the
		// two weakest.
		deal := func(c int) int {
			if (strong && c < 2) || (!strong && c >= 28) {
				return 2
			}
			return c % 2
		}
		tc := newGradedCluster(t, 3, 30, deal, func(c int) int { return c })
		c := tc.coordinator(t, Options{})
		tops := []int{1, 2, 3, 5, 10, 11, 12, 1000}
		if n := assertMatchesAt(t, tc, c, tops); n != 5 {
			t.Fatalf("strong=%v: two rounds answered %d requests, want 5", strong, n)
		}
		if st := c.Stats().Coordinator; st.RankTwoRoundFallbacks != 3 {
			t.Fatalf("strong=%v: fallbacks = %d, want 3 (top 11, 12, 1000)", strong, st.RankTwoRoundFallbacks)
		}
	}
}

// TestClusterTwoRoundTieAtTau: every shard holds a copy of every
// variant under a different name, so each MI value, τ included, is
// tied across all shards. Round 2 keeps rows at exactly τ, and the
// merge breaks the ties by name as a single node does.
func TestClusterTwoRoundTieAtTau(t *testing.T) {
	for _, s := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", s), func(t *testing.T) {
			tc := newGradedCluster(t, s, 12*s, func(c int) int { return c % s }, func(c int) int { return c / s })
			c := tc.coordinator(t, Options{})
			for _, top := range []int{2, 3, 5, 10} {
				// τ is the K-th best of the round-1 union; with every
				// value on every shard it is tied across shards.
				want := tc.singleNodeRank(t, tc.rankRequest(t, 0)).Ranked
				tau := want[top-1].MI
				ties := 0
				for _, r := range want {
					if r.MI == tau {
						ties++
					}
				}
				if ties < 2 {
					t.Fatalf("top=%d: fixture has no tie at τ=%v", top, tau)
				}
			}
			if n := assertMatchesAt(t, tc, c, twoRoundTops); n != int64(len(twoRoundTops)-1) {
				t.Fatalf("two rounds answered %d of %d requests", n, len(twoRoundTops)-1)
			}
		})
	}
}

// TestClusterTwoRoundWriteBetweenRounds races writes against the
// certificate. Overwriting the strong candidates between the rounds
// leaves fewer than K rows above the stale τ: the query must fall back
// and answer for the new catalog. A new top candidate leaves the
// certificate intact: two rounds, and the new candidate is in the top K.
func TestClusterTwoRoundWriteBetweenRounds(t *testing.T) {
	const s, nCand = 3, 30
	tc := newGradedCluster(t, s, nCand, func(c int) int { return c % s }, func(c int) int { return c })
	c := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	noise := gradedCandidate(t, 3)
	c.betweenRounds = func() {
		c.betweenRounds = nil
		for cand := 0; cand < nCand; cand++ {
			if cand%s != s-1 {
				tc.putBoth(t, cand%s, fmt.Sprintf("corpus/c%03d", cand), noise)
			}
		}
	}
	req := tc.rankRequest(t, 10)
	got, err := c.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRanked(t, got.Ranked, tc.singleNodeRank(t, req).Ranked)
	if st := c.Stats().Coordinator; st.RankTwoRoundFallbacks != 1 || st.RankTwoRound != 0 || st.RankRequests != 1 {
		t.Fatalf("stats %+v: want one request answered by the fallback", st)
	}
	// The remembered τ is stale now: a repeat's round 2 comes back
	// short, and the query finds a new τ for the new catalog.
	got, err = c.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRanked(t, got.Ranked, tc.singleNodeRank(t, req).Ranked)
	if st := c.Stats().Coordinator; st.RankRequests != 2 || st.RankTwoRound+st.RankTwoRoundFallbacks != 2 {
		t.Fatalf("stats %+v: want the repeat to try two rounds again", st)
	}

	tc = newGradedCluster(t, s, nCand, func(c int) int { return c % s }, func(c int) int { return c })
	c = tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	c.betweenRounds = func() {
		c.betweenRounds = nil
		tc.putBoth(t, 1, "corpus/new", gradedCandidate(t, 0))
	}
	got, err = c.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := tc.singleNodeRank(t, req)
	assertIdenticalRanked(t, got.Ranked, want.Ranked)
	if st := c.Stats().Coordinator; st.RankTwoRound != 1 || st.RankTwoRoundFallbacks != 0 {
		t.Fatalf("stats %+v: a new top candidate must not force a fallback", st)
	}
	found := false
	for _, r := range got.Ranked {
		found = found || r.Name == "corpus/new"
	}
	if !found {
		t.Fatal("candidate written between the rounds is missing")
	}
}

// TestClusterTwoRoundShardLostBetweenRounds: a shard that answers
// round 1 and dies before round 2 asks it again turns the query into
// today's degraded single round — partial, one shard error, the
// survivors' exact top K — counted once. A shard round 2 does not need
// may die unnoticed: its round-1 answer already holds its part.
func TestClusterTwoRoundShardLostBetweenRounds(t *testing.T) {
	const s, nCand, top = 3, 30, 10
	tc := newGradedCluster(t, s, nCand, func(c int) int { return c % s }, func(c int) int { return c })
	opt := Options{Retries: -1, RetryBackoff: -1, RequestTimeout: 5 * time.Second}
	// On this corpus shard 1's round-1 answer ends exactly at τ, so
	// round 2 asks it again; shard 0's ends below τ, so it is not asked.
	c := tc.coordinator(t, opt)
	c.betweenRounds = func() { tc.shards[0].Close() }
	got, err := c.Rank(context.Background(), tc.rankRequest(t, top))
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || c.Stats().Coordinator.RankTwoRound != 1 {
		t.Fatalf("losing a shard round 2 does not ask degraded the answer: %+v", got.ShardErrors)
	}
	assertIdenticalRanked(t, got.Ranked, tc.singleNodeRank(t, tc.rankRequest(t, top)).Ranked)

	tc = newGradedCluster(t, s, nCand, func(c int) int { return c % s }, func(c int) int { return c })
	c = tc.coordinator(t, opt)
	c.betweenRounds = func() { tc.shards[1].Close() }

	all := tc.singleNodeRank(t, tc.rankRequest(t, 0)).Ranked
	var want []server.RankedResult
	for _, r := range all {
		var cand int
		fmt.Sscanf(r.Name, "corpus/c%d", &cand)
		if cand%s != 1 && len(want) < top {
			want = append(want, r)
		}
	}
	got, err = c.Rank(context.Background(), tc.rankRequest(t, top))
	if err != nil {
		t.Fatalf("a shard lost between rounds must degrade, not fail: %v", err)
	}
	if !got.Partial || len(got.ShardErrors) != 1 || got.ShardErrors[0].Shard != tc.shards[1].URL {
		t.Fatalf("want partial with one error for %s, got partial=%v %+v", tc.shards[1].URL, got.Partial, got.ShardErrors)
	}
	assertIdenticalRanked(t, got.Ranked, want)
	st := c.Stats().Coordinator
	if st.RankRequests != 1 || st.RankPartial != 1 || st.RankFailures != 0 || st.RankTwoRoundFallbacks != 1 {
		t.Fatalf("stats %+v: want one partial request answered by the fallback", st)
	}
	// The fallback reports round 2's error instead of waiting for the
	// dead shard again.
	if n := c.Stats().Shards[1].Requests; n != 2 {
		t.Fatalf("dead shard asked %d times, want 2 (round 1 and round 2)", n)
	}
}

// TestClusterTwoRoundShardDownBeforeRound1: a shard that is already
// down fails round 1, and the one-round fallback reports that failure
// rather than asking the shard again, so a dead shard costs its retry
// budget once per query, not twice.
func TestClusterTwoRoundShardDownBeforeRound1(t *testing.T) {
	const s, nCand, top = 3, 30, 10
	tc := newGradedCluster(t, s, nCand, func(c int) int { return c % s }, func(c int) int { return c })
	c := tc.coordinator(t, Options{Retries: 1, RetryBackoff: time.Millisecond, RequestTimeout: 5 * time.Second})
	tc.shards[2].Close()
	all := tc.singleNodeRank(t, tc.rankRequest(t, 0)).Ranked
	var want []server.RankedResult
	for _, r := range all {
		var cand int
		fmt.Sscanf(r.Name, "corpus/c%d", &cand)
		if cand%s != 2 && len(want) < top {
			want = append(want, r)
		}
	}
	got, err := c.Rank(context.Background(), tc.rankRequest(t, top))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || len(got.ShardErrors) != 1 || got.ShardErrors[0].Shard != tc.shards[2].URL {
		t.Fatalf("want partial with one error for %s, got partial=%v %+v", tc.shards[2].URL, got.Partial, got.ShardErrors)
	}
	assertIdenticalRanked(t, got.Ranked, want)
	sh := c.Stats().Shards[2]
	if sh.Requests != 1 || sh.Retries != 1 {
		t.Fatalf("dead shard: %d requests, %d retries; want 1 and 1", sh.Requests, sh.Retries)
	}
	if st := c.Stats().Coordinator; st.RankPartial != 1 || st.RankTwoRoundFallbacks != 1 {
		t.Fatalf("stats %+v: want one partial answer from the fallback", st)
	}
}

// TestClusterTwoRoundGate: on traffic whose top-K MI sits below the
// cascade margin, round 1 cannot certify a useful τ and the fallback
// redoes its work. After a few such attempts the coordinator stops
// trying on fresh requests (probing now and then), remembers the
// outcome for repeated ones, and opens again once two rounds pay.
func TestClusterTwoRoundGate(t *testing.T) {
	// Candidates c000–c019 are graded (strong MIs); c020–c039 are noise.
	tc := newGradedCluster(t, 3, 40, func(c int) int { return c % 3 }, func(c int) int {
		if c < 20 {
			return c
		}
		return 4*c + 3
	})
	low := tc.rankRequest(t, 3)
	low.Prefix = "corpus/c03"
	high := tc.rankRequest(t, 3)
	high.Prefix = "corpus/c00"
	if mi := tc.singleNodeRank(t, low).Ranked[2].MI; mi > store.DefaultCascadeMargin {
		t.Fatalf("fixture: low query's 3rd MI %v is above the cascade margin", mi)
	}
	rank := func(c *Coordinator, req RankRequest) {
		t.Helper()
		got, err := c.Rank(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalRanked(t, got.Ranked, tc.singleNodeRank(t, req).Ranked)
	}

	// Without a cache nothing is remembered per request: the gate alone
	// bounds the wasted round 1s.
	c := tc.coordinator(t, Options{})
	const n = 40
	for i := 0; i < n; i++ {
		rank(c, low)
	}
	st := c.Stats().Coordinator
	if maxTries := int64(gateStreak + n/gateProbeEvery); st.RankTwoRoundFallbacks < gateStreak || st.RankTwoRoundFallbacks > maxTries || st.RankTwoRoundSkipped != n-st.RankTwoRoundFallbacks {
		t.Fatalf("stats %+v: want %d to %d attempts, the rest skipped", st, gateStreak, maxTries)
	}
	t.Logf("low-MI traffic without a cache: %d of %d requests tried two rounds", st.RankTwoRoundFallbacks, n)
	for i := 0; i < gateProbeEvery; i++ {
		rank(c, high)
	}
	before := c.Stats().Coordinator.RankTwoRound
	if before == 0 {
		t.Fatal("the gate never let a paying request try two rounds")
	}
	rank(c, high)
	if c.Stats().Coordinator.RankTwoRound != before+1 {
		t.Fatal("a paying two-round attempt did not open the gate")
	}

	// With a cache a repeated low query tries once, then goes straight
	// to one round; its repeats revalidate with 304s and replay.
	c = tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		rank(c, low)
	}
	st = c.Stats().Coordinator
	if st.RankTwoRoundFallbacks != 1 || st.RankTwoRoundSkipped != 2 || st.ResultMergedHits != 2 {
		t.Fatalf("stats %+v: want one attempt, two skipped repeats replayed", st)
	}
	// A changed answer retires the memo: the next repeat tries again.
	tc.putBoth(t, 0, "corpus/c030x", gradedCandidate(t, 2))
	rank(c, low)
	rank(c, low)
	if st := c.Stats().Coordinator; st.RankTwoRoundFallbacks+st.RankTwoRound != 2 {
		t.Fatalf("stats %+v: want a second attempt after the answer changed", st)
	}
}

// TestClusterTwoRoundDuplicateNames: a name stored on two shards is
// reported as a shard error naming both, counted, never cached or
// tagged, and keeps the query off the two-round path whose certificate
// assumes distinct rows.
func TestClusterTwoRoundDuplicateNames(t *testing.T) {
	tc := newGradedCluster(t, 3, 30, func(c int) int { return c % 3 }, func(c int) int { return c })
	dup := gradedCandidate(t, 0)
	for _, sh := range []int{0, 1} {
		if err := tc.shardSts[sh].Put("corpus/dup", dup); err != nil {
			t.Fatal(err)
		}
	}
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	body := mustMarshal(t, tc.rankRequest(t, 5))
	for pass := 0; pass < 2; pass++ {
		status, etag, raw := postCoord(t, cs.URL, body, "")
		if status != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, status, raw)
		}
		if etag != "" {
			t.Fatalf("pass %d: answer with a duplicated name carried ETag %q", pass, etag)
		}
		var rr RankResponse
		mustUnmarshal(t, raw, &rr)
		if rr.Partial || len(rr.ShardErrors) != 1 {
			t.Fatalf("pass %d: want one shard error and no partial flag, got %s", pass, raw)
		}
		msg := rr.ShardErrors[0].Error
		if !strings.Contains(msg, "corpus/dup") || !strings.Contains(msg, tc.shards[0].URL) || !strings.Contains(msg, tc.shards[1].URL) {
			t.Fatalf("pass %d: shard error %q does not name the sketch and both shards", pass, msg)
		}
	}
	st := coord.Stats().Coordinator
	if st.RankDuplicateNames != 2 || st.RankTwoRound != 0 || st.RankTwoRoundFallbacks != 2 {
		t.Fatalf("stats %+v: want 2 duplicates and 2 fallbacks", st)
	}
	if st.ResultMergedHits != 0 {
		t.Fatalf("merged replays = %d, want 0: a duplicated answer must not be cached", st.ResultMergedHits)
	}
}

// TestClusterTwoRoundCacheAndETag: a repeated two-round query replays
// the cached merge under a stable ETag, a client holding that ETag
// revalidates for free, and neither does any ranking work on a shard:
// the coordinator remembers τ, so a repeat is one scatter of 304s. A
// write to a shard that round 2 did not ask again still moves the ETag,
// because that shard's round-1 tag is part of it.
func TestClusterTwoRoundCacheAndETag(t *testing.T) {
	tc := newGradedCluster(t, 3, 30, func(c int) int { return c % 3 }, func(c int) int { return c })
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	req := tc.rankRequest(t, 10)
	body := mustMarshal(t, req)

	status, etag1, first := postCoord(t, cs.URL, body, "")
	if status != http.StatusOK || etag1 == "" {
		t.Fatalf("first query: status %d etag %q: %s", status, etag1, first)
	}
	var rr RankResponse
	mustUnmarshal(t, first, &rr)
	assertIdenticalRanked(t, rr.Ranked, tc.singleNodeRank(t, req).Ranked)

	ranked := func() (n int64) {
		for _, st := range tc.shardSts {
			n += st.Stats().RankQueries
		}
		return n
	}
	misses := func() (n int64) {
		for _, ts := range tc.shards {
			n += shardServerStats(t, ts.URL).ResultMisses
		}
		return n
	}
	rankedBefore, missesBefore := ranked(), misses()
	for pass := 0; pass < 2; pass++ {
		status, etag2, again := postCoord(t, cs.URL, body, "")
		if status != http.StatusOK || etag2 != etag1 {
			t.Fatalf("repeat %d: status %d, ETag %q -> %q", pass, status, etag1, etag2)
		}
		if !bytes.Equal(normalizeElapsed(first), normalizeElapsed(again)) {
			t.Fatalf("replayed answer diverges:\n%s\n%s", first, again)
		}
	}
	if status, _, raw := postCoord(t, cs.URL, body, etag1); status != http.StatusNotModified || len(raw) != 0 {
		t.Fatalf("client revalidation: status %d, body %q", status, raw)
	}
	if r, m := ranked()-rankedBefore, misses()-missesBefore; r != 0 || m != 0 {
		t.Fatalf("repeats ranked %d times and missed %d shard result caches, want 0 and 0", r, m)
	}
	st := coord.Stats().Coordinator
	if st.RankTwoRound != 4 || st.RankTwoRoundFallbacks != 0 || st.ResultMergedHits != 3 || st.ResultShardHits != 9 {
		t.Fatalf("stats %+v: want four two-round answers, three replayed from nine shard 304s", st)
	}
	// Round 1 is not cached: the entries are one round-2 answer per
	// shard that round 2 asked, the merge and the remembered τ.
	asked := 0
	for _, sh := range coord.Stats().Shards {
		if sh.Requests > 4 {
			asked++
		}
	}
	if st.ResultEntries != asked+2 {
		t.Fatalf("%d cache entries, want %d", st.ResultEntries, asked+2)
	}

	// Shard 0's round-1 answer ends below τ on this corpus, so round 2
	// does not ask it on the first query and revalidates its round-1
	// answer on repeats: one request per query. A write there must
	// still change the ETag.
	if sh := coord.Stats().Shards; sh[0].Requests != 4 || sh[1].Requests != 5 {
		t.Fatalf("shard requests %d and %d, want 4 (round 1, then one per repeat) and 5", sh[0].Requests, sh[1].Requests)
	}
	tc.putBoth(t, 0, "corpus/weak", gradedCandidate(t, 3))
	status, etag3, third := postCoord(t, cs.URL, body, "")
	if status != http.StatusOK || etag3 == "" || etag3 == etag1 {
		t.Fatalf("after a write: status %d, ETag %q (was %q)", status, etag3, etag1)
	}
	mustUnmarshal(t, third, &rr)
	assertIdenticalRanked(t, rr.Ranked, tc.singleNodeRank(t, req).Ranked)
}

// shardServerStats fetches a shard's /v1/stats server counters.
func shardServerStats(t testing.TB, url string) server.ServerStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.Server
}

// TestClusterTwoRoundNoStoreOnlyWithCache: a coordinator that caches
// shard answers itself asks the shards not to store theirs; one
// without a cache leaves the shards' caches to serve its repeats.
func TestClusterTwoRoundNoStoreOnlyWithCache(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		tc := newGradedCluster(t, 3, 30, func(c int) int { return c % 3 }, func(c int) int { return c })
		var urls []string
		for _, st := range tc.shardSts {
			ts := httptest.NewServer(server.New(st, server.Options{ResultCacheBytes: 1 << 20}))
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
		}
		c, err := New(urls, Options{ResultCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Rank(context.Background(), tc.rankRequest(t, 10)); err != nil {
			t.Fatal(err)
		}
		entries := 0
		for _, u := range urls {
			entries += shardServerStats(t, u).ResultEntries
		}
		if (cacheBytes == 0) != (entries > 0) {
			t.Fatalf("coordinator cache %d bytes: shards stored %d answers", cacheBytes, entries)
		}
	}
}

// TestClusterTwoRoundWorkBound is the point of the two rounds: on the
// 1000-candidate bench catalog dealt to three shards, a top-10 query at
// one worker per shard pays at most twice the exact-tier runs of one
// node ranking the whole catalog. (Round 1 prunes only as well as each
// shard's local ⌈K/S⌉-th MI allows; on this catalog every shard's top 4
// is planted cohort, far above the noise bulk.)
func TestClusterTwoRoundWorkBound(t *testing.T) {
	const s, nCand = 3, 1000
	tc := &testCluster{}
	openMem := func() *store.Store {
		st, err := store.OpenWithOptions(t.TempDir(), store.OpenOptions{Backend: store.BackendMem})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	tc.unionSt = openMem()
	for i := 0; i < s; i++ {
		tc.shardSts = append(tc.shardSts, openMem())
	}
	// The `misketch bench` corpus: a graded planted cohort, marginal
	// stragglers, an independent bulk.
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
	for c := 0; c < nCand; c++ {
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
		tc.putBoth(t, c%s, fmt.Sprintf("corpus/t%04d", c), cb.Sketch())
	}
	minJoin := 50
	req := RankRequest{
		Sketch: sketchBase64(t, tb.Sketch()), Prefix: "corpus/",
		MinJoin: &minJoin, Top: 10, Workers: 1,
	}
	tc.union = httptest.NewServer(server.New(tc.unionSt, server.Options{}))
	t.Cleanup(tc.union.Close)
	for _, st := range tc.shardSts {
		ts := httptest.NewServer(server.New(st, server.Options{}))
		tc.shards = append(tc.shards, ts)
		t.Cleanup(ts.Close)
	}
	c := tc.coordinator(t, Options{})

	before := tc.unionSt.Stats().CascadeExact
	want := tc.singleNodeRank(t, req)
	single := tc.unionSt.Stats().CascadeExact - before

	clusterExact := func() (n int64) {
		for _, st := range tc.shardSts {
			n += st.Stats().CascadeExact
		}
		return n
	}
	before = clusterExact()
	got, err := c.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cluster := clusterExact() - before
	assertIdenticalRanked(t, got.Ranked, want.Ranked)
	if c.Stats().Coordinator.RankTwoRound != 1 {
		t.Fatal("the bench query did not take two rounds")
	}
	t.Logf("exact-tier runs per query: single node %d, cluster %d", single, cluster)
	if cluster > 2*single {
		t.Fatalf("cluster paid %d exact-tier runs, single node %d: over the 2x bound", cluster, single)
	}
}

// TestClusterTwoRoundConcurrent is the -race hammer for the state two
// rounds share across requests: remembered floors in the coordinator
// cache and the gate. Workers repeat high- and low-MI queries at several
// top-K bounds through one caching coordinator; every answer must match
// the union node.
func TestClusterTwoRoundConcurrent(t *testing.T) {
	tc := newGradedCluster(t, 3, 40, func(c int) int { return c % 3 }, func(c int) int {
		if c < 20 {
			return c
		}
		return 4*c + 3
	})
	var reqs []RankRequest
	var wants []server.RankResponse
	for _, prefix := range []string{"corpus/", "corpus/c03"} {
		for _, top := range []int{3, 5, 10} {
			req := tc.rankRequest(t, top)
			req.Prefix = prefix
			reqs = append(reqs, req)
			wants = append(wants, tc.singleNodeRank(t, req))
		}
	}
	c := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := (w + i) % len(reqs)
				got, err := c.Rank(context.Background(), reqs[q])
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if !reflect.DeepEqual(got.Ranked, wants[q].Ranked) {
					t.Errorf("worker %d iter %d: ranking %+v, want %+v", w, i, got.Ranked, wants[q].Ranked)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats().Coordinator; st.RankTwoRound == 0 || st.RankTwoRoundSkipped == 0 {
		t.Fatalf("stats %+v: want both two-round answers and skipped low-MI repeats", st)
	}
}

// TestClusterBatchDuplicateNames: the batch merge checks disjointness
// per query as the single rank does. A name stored on two shards is one
// shard error naming both (once per request, however many queries rank
// it), is counted, and keeps the answer untagged and uncached.
func TestClusterBatchDuplicateNames(t *testing.T) {
	tc := newGradedCluster(t, 3, 30, func(c int) int { return c % 3 }, func(c int) int { return c })
	dup := gradedCandidate(t, 0)
	for _, sh := range []int{0, 1} {
		if err := tc.shardSts[sh].Put("corpus/dup", dup); err != nil {
			t.Fatal(err)
		}
	}
	coord := tc.coordinator(t, Options{ResultCacheBytes: 1 << 20})
	cs := httptest.NewServer(coord)
	defer cs.Close()
	minJoin := 10
	sk := sketchBase64(t, tc.train)
	body := mustMarshal(t, RankBatchRequest{
		Trains: []server.BatchTrainRef{{Name: "q0", Sketch: sk}, {Name: "q1", Sketch: sk}},
		Prefix: "corpus/", MinJoin: &minJoin, K: 3, Top: 5,
	})
	for pass := 0; pass < 2; pass++ {
		resp, err := http.Post(cs.URL+"/v1/rank/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br RankBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d", pass, resp.StatusCode)
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			t.Fatalf("pass %d: batch answer with a duplicated name carried ETag %q", pass, etag)
		}
		if br.Partial || len(br.ShardErrors) != 1 {
			t.Fatalf("pass %d: want one shard error and no partial flag, got %+v", pass, br.ShardErrors)
		}
		msg := br.ShardErrors[0].Error
		if !strings.Contains(msg, "corpus/dup") || !strings.Contains(msg, tc.shards[0].URL) || !strings.Contains(msg, tc.shards[1].URL) {
			t.Fatalf("pass %d: shard error %q does not name the sketch and both shards", pass, msg)
		}
		for q, qr := range br.Queries {
			n := 0
			for _, row := range qr.Ranked {
				if row.Name == "corpus/dup" {
					n++
				}
			}
			if n != 2 {
				t.Fatalf("pass %d query %d: duplicated name ranked %d times, want both shards' rows", pass, q, n)
			}
		}
	}
	st := coord.Stats().Coordinator
	if st.RankDuplicateNames != 2 {
		t.Fatalf("rank_duplicate_names = %d, want 2 (one per request)", st.RankDuplicateNames)
	}
	if st.ResultMergedHits != 0 {
		t.Fatalf("merged replays = %d, want 0: a duplicated answer must not be cached", st.ResultMergedHits)
	}
}

package cluster

// The two-round threshold scatter for /v1/rank, after TPUT (Cao & Wang,
// PODC 2004). A shard whose local K-th MI sits below the cascade margin
// cannot prune on its own and scores every candidate exactly; a bound
// on the global K-th MI lets it prune as a single node would.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"sort"
	"sync/atomic"

	"misketch/internal/server"
	"misketch/internal/store"
)

// rankTwoRound answers a top-K rank in two rounds, or returns nil and
// the shards that failed on the way, which the one-round fallback then
// reports without asking them again.
//
// Round 1 asks every shard for its top ⌈K/S⌉. The union holds at
// least K distinct candidates, so its K-th best MI, τ, is a lower bound
// on the global K-th MI. Round 2 asks for the top K with min_mi τ. If
// every shard answered and the merge holds at least K rows, those rows
// are the exact top K: every row a one-round query would have returned
// above them has MI ≥ τ too, so no shard dropped it. That holds for any
// τ, so a write between the rounds cannot make the answer wrong, only
// too short. A short answer, a lost shard, a name on two shards, or a
// round 1 that cannot certify a τ above the cascade margin (round 2
// would prune nothing one round does not) returns nil.
//
// A shard whose round-1 answer already holds every row it has at or
// above τ is not asked again (see roundOne).
//
// Because any τ certifies, the coordinator remembers each request's τ
// with the known answers (memo, nil when there is none) and a repeat
// goes straight to round 2. Round 2 revalidates and caches like one
// round, so a repeat over unchanged shards costs one scatter of
// bodyless 304s and replays the cached merge. Round 1 runs again only
// when that answer comes back short or a known shard has changed.
// Round 1 itself is never cached: its top ⌈K/S⌉ answers are what no
// client asks for, and the memo keeps the part of them round 2 needs.
func (c *Coordinator) rankTwoRound(ctx context.Context, req *RankRequest, digest [sha256.Size]byte, memo *floorMemo) (*rankRound, []*ShardError) {
	k := req.Top
	r1, err := c.probeFor(req)
	if err != nil {
		return nil, nil
	}
	if memo != nil {
		r1.tau, r1.known = memo.tau, memo.known
		second := c.roundTwo(ctx, req, r1)
		if second.accepted(k) {
			return second, nil
		}
		if lost := second.lostShards(); lost != nil {
			return nil, lost
		}
		// Too short, or a known shard changed: find a new τ.
	}
	first := c.gatherRank(ctx, r1.canon, requestDigest("rank", r1.canon), k, false, nil, nil)
	if !first.complete() {
		return nil, first.lostShards()
	}
	wasted := first.rows < k || !(first.resp.Ranked[k-1].MI > store.EffectiveCascadeMargin(req.CascadeMargin))
	c.gate.record(wasted)
	if wasted {
		c.rememberFloor(digest, &floorMemo{oneRound: true})
		return nil, nil
	}
	r1.tau, r1.fresh = first.resp.Ranked[k-1].MI, true
	r1.known = make([]*knownAnswer, len(c.shards))
	for i, a := range first.answers {
		if n := len(a.Ranked); n < r1.top || a.Ranked[n-1].MI < r1.tau {
			cut := *a
			cut.Ranked = a.Ranked[:sort.Search(n, func(j int) bool { return a.Ranked[j].MI < r1.tau })]
			r1.known[i] = &knownAnswer{resp: &cut, etag: first.tags[i]}
		}
	}
	c.rememberFloor(digest, &floorMemo{tau: r1.tau, known: r1.known})
	if c.betweenRounds != nil {
		c.betweenRounds()
	}
	second := c.roundTwo(ctx, req, r1)
	if !second.accepted(k) {
		return nil, second.lostShards()
	}
	if second.replay == nil {
		// Round 1 compiled the probes; report what it saw.
		second.resp.ProbeCached = first.resp.ProbeCached
	}
	return second, nil
}

// roundOne is round 1 of a two-round rank as round 2 sees it.
type roundOne struct {
	canon []byte
	top   int     // ⌈K/S⌉, each shard's share
	tau   float64 // the floor round 2 is sent with
	// known[i] is set for a shard whose round-1 answer already holds
	// every row it has at or above τ: it returned fewer than top rows,
	// or its last row is below τ. Round 2 takes that answer's rows at or
	// above τ instead of asking for them. Straight after round 1 (fresh)
	// the shard is not asked at all; on a repeat it is asked the round-1
	// body with the round-1 ETag, and only a 304 lets the answer stand.
	// Either way the round-1 ETag enters the coordinator ETag.
	known []*knownAnswer
	fresh bool
}

// knownAnswer is a shard's round-1 answer cut to its rows at or above
// τ, with the shard's round-1 ETag.
type knownAnswer struct {
	resp *server.RankResponse
	etag string
}

// probeFor builds round 1 of req: the same request at top ⌈K/S⌉.
func (c *Coordinator) probeFor(req *RankRequest) (*roundOne, error) {
	probe := *req
	probe.Top = (req.Top + len(c.shards) - 1) / len(c.shards)
	canon, err := json.Marshal(&probe)
	if err != nil {
		return nil, err
	}
	return &roundOne{canon: canon, top: probe.Top}, nil
}

// roundTwo asks the shards for req's top K with min_mi τ. Its request
// digest, τ included, keys the cache and the coordinator ETag.
func (c *Coordinator) roundTwo(ctx context.Context, req *RankRequest, r1 *roundOne) *rankRound {
	bounded := *req
	bounded.MinMI = r1.tau
	canon, err := json.Marshal(&bounded)
	if err != nil {
		// τ is a finite MI, so this cannot happen; an empty round is
		// never accepted.
		return &rankRound{tags: make([]string, len(c.shards))}
	}
	return c.gatherRank(ctx, canon, requestDigest("rank", canon), req.Top, true, nil, r1)
}

// accepted reports whether a round-2 answer carries the certificate:
// every shard answered, no name came from two shards, and the merge
// holds at least top rows.
func (r *rankRound) accepted(top int) bool {
	return r.complete() && r.rows >= top
}

// floorMemo is what the coordinator remembers, in its result cache,
// about a rank request's last two-round attempt.
type floorMemo struct {
	// tau is the certified floor round 2 was sent with, and known the
	// round-1 answers that stood in for shards round 2 did not ask.
	tau   float64
	known []*knownAnswer
	// oneRound marks an attempt whose round 1 could not certify a τ
	// above the cascade margin: repeats go straight to one round until
	// its answer changes.
	oneRound bool
}

func floorKey(digest [sha256.Size]byte) ccKey {
	return ccKey{shard: floorShard, digest: digest}
}

// floorFor returns the remembered floor for a request digest, or nil.
func (c *Coordinator) floorFor(digest [sha256.Size]byte) *floorMemo {
	if ent := c.results.get(floorKey(digest)); ent != nil {
		return ent.decoded.(*floorMemo)
	}
	return nil
}

func (c *Coordinator) rememberFloor(digest [sha256.Size]byte, m *floorMemo) {
	size := int64(ccEntryOverhead)
	for _, ka := range m.known {
		if ka != nil {
			size += ccEntryOverhead + memoRowBytes*int64(len(ka.resp.Ranked))
		}
	}
	c.results.add(&ccEntry{key: floorKey(digest), decoded: m, size: size})
}

// memoRowBytes is the accounting charge for one remembered row.
const memoRowBytes = 128

// After gateStreak wasted round 1s in a row, only one fresh two-round
// attempt in gateProbeEvery goes ahead.
const (
	gateStreak     = 4
	gateProbeEvery = 16
)

// twoRoundGate keeps fresh two-round attempts off traffic on which they
// do not pay. A round 1 is wasted when it cannot certify a τ above the
// cascade margin — the top-K MI sits below the margin, or the catalog
// holds fewer than K candidates — and the one-round fallback then redoes
// its work. After gateStreak wasted attempts in a row the gate closes;
// while closed it lets one request in gateProbeEvery try, and the first
// attempt that pays opens it again. A request with a remembered floor
// does not consult the gate.
type twoRoundGate struct {
	wasted atomic.Int64 // consecutive wasted round 1s
	closed atomic.Int64 // requests seen while closed
}

func (g *twoRoundGate) allow() bool {
	return g.wasted.Load() < gateStreak || g.closed.Add(1)%gateProbeEvery == 0
}

func (g *twoRoundGate) record(wasted bool) {
	if wasted {
		g.wasted.Add(1)
	} else {
		g.wasted.Store(0)
	}
}

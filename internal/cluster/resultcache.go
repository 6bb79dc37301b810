package cluster

// The coordinator's result cache, built entirely on the shard ETag
// protocol — no generation state crosses the wire beyond what the ETag
// already encodes.
//
// Per-shard entries. Each (request digest, shard) pair remembers the
// shard's last ETag and its *decoded* top-K answer. On the next
// identical request the coordinator scatters with If-None-Match: an
// unchanged shard answers 304 with no body, and the cached decoded
// heap feeds the merge directly — no body transfer, no JSON decode.
// A shard whose catalog moved (or that restarted — its ETag epoch is
// new) answers 200 with a fresh body, which replaces the entry. A
// stale entry is therefore harmless by construction: its only power
// is an If-None-Match header, and a shard that cannot revalidate it
// sends full data.
//
// Merged entries. When every shard revalidated (all 304) and the
// merged response for exactly that set of shard ETags is cached, the
// coordinator replays its encoded bytes — skipping the merge sort and
// re-encode too. The coordinator's own ETag is derived from the
// request digest plus the per-shard ETags, so it is pure content: it
// survives coordinator restarts and changes exactly when some shard's
// answer changes. Clients revalidate with If-None-Match against the
// coordinator the same way the coordinator revalidates against
// shards.
//
// Partial (degraded) responses are never cached and never carry an
// ETag: a lost shard means the answer is not a pure function of the
// request, and caching it would let a transient outage echo after
// recovery. Per-shard 200s inside a degraded scatter ARE cached —
// each one is authoritative for its own shard regardless of what the
// others did.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
)

// ccKey identifies one cache entry: a per-shard answer (shard >= 0),
// the merged coordinator answer (shard == mergedShard), or a rank
// request's remembered two-round floor (shard == floorShard).
type ccKey struct {
	shard  int
	digest [sha256.Size]byte
}

// mergedShard and floorShard are the ccKey.shard sentinels for merged
// entries and two-round floors.
const (
	mergedShard = -1
	floorShard  = -2
)

// ccEntry is one cached answer. Shard entries hold the decoded
// response (the merge wants structs, not bytes); merged entries hold
// the encoded body (the client wants bytes) plus the shard ETags the
// merge consumed, which gate replay. size is the admission-time
// accounting charge — for shard entries an estimate from the wire
// body the decode consumed.
type ccEntry struct {
	key       ccKey
	etag      string
	decoded   any
	body      []byte
	shardTags []string
	size      int64
}

// ccEntryOverhead approximates per-entry bookkeeping bytes.
const ccEntryOverhead = 200

// cflight is one in-progress scatter shared by coalesced identical
// requests, refcounted exactly like the server package's flight: the
// computation context cancels only when every joined request has gone
// away, and the published (status, etag, body) replays to waiters.
type cflight struct {
	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	refs   int64
	refMu  sync.Mutex

	status int
	etag   string
	body   []byte
}

func (f *cflight) join(rctx context.Context) (release func()) {
	f.refMu.Lock()
	f.refs++
	f.refMu.Unlock()
	var once sync.Once
	dec := func() {
		once.Do(func() {
			f.refMu.Lock()
			f.refs--
			last := f.refs == 0
			f.refMu.Unlock()
			if last {
				select {
				case <-f.done:
				default:
					f.cancel()
				}
			}
		})
	}
	stop := context.AfterFunc(rctx, dec)
	return func() {
		stop()
		dec()
	}
}

func (f *cflight) publish(status int, etag string, body []byte) {
	f.status, f.etag, f.body = status, etag, body
	close(f.done)
	f.cancel()
}

// clusterCache is the byte-bounded LRU over shard and merged entries
// plus the coordinator-level singleflight table. A nil *clusterCache
// disables caching and coalescing; the ETag protocol (emitting one,
// honoring If-None-Match from clients) does not depend on it.
type clusterCache struct {
	mu      sync.Mutex
	max     int64
	used    int64
	ll      *list.List
	byKey   map[ccKey]*list.Element
	flights map[[sha256.Size]byte]*cflight

	shardHits   atomic.Int64 // shard 304s whose decoded heap fed a merge
	mergedHits  atomic.Int64 // merged bodies replayed without a merge
	coalesced   atomic.Int64
	evictions   atomic.Int64
	notModified atomic.Int64 // client If-None-Match answered 304
}

func newClusterCache(maxBytes int64) *clusterCache {
	if maxBytes <= 0 {
		return nil
	}
	return &clusterCache{
		max:     maxBytes,
		ll:      list.New(),
		byKey:   make(map[ccKey]*list.Element),
		flights: make(map[[sha256.Size]byte]*cflight),
	}
}

// get returns the live entry for key, marking it most recently used.
// Callers must treat the entry as immutable.
func (c *clusterCache) get(key ccKey) *ccEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(e)
	return e.Value.(*ccEntry)
}

// add inserts or replaces an entry, evicting past the byte bound; an
// entry larger than the whole bound is refused.
func (c *clusterCache) add(ent *ccEntry) {
	if c == nil || ent.size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[ent.key]; ok {
		old := e.Value.(*ccEntry)
		c.used += ent.size - old.size
		e.Value = ent
		c.ll.MoveToFront(e)
	} else {
		c.byKey[ent.key] = c.ll.PushFront(ent)
		c.used += ent.size
	}
	for c.used > c.max {
		last := c.ll.Back()
		lent := last.Value.(*ccEntry)
		c.ll.Remove(last)
		delete(c.byKey, lent.key)
		c.used -= lent.size
		c.evictions.Add(1)
	}
}

// remove drops the entry for key, if any.
func (c *clusterCache) remove(key ccKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		c.ll.Remove(e)
		delete(c.byKey, key)
		c.used -= e.Value.(*ccEntry).size
	}
}

// joinFlight coalesces identical concurrent requests; nil receiver
// makes every caller a solo leader (no coalescing).
func (c *clusterCache) joinFlight(rctx context.Context, digest [sha256.Size]byte) (f *cflight, leader bool, release func()) {
	if c == nil {
		ctx, cancel := context.WithCancel(context.Background())
		f = &cflight{done: make(chan struct{}), ctx: ctx, cancel: cancel}
		return f, true, f.join(rctx)
	}
	c.mu.Lock()
	f, ok := c.flights[digest]
	if !ok {
		ctx, cancel := context.WithCancel(context.Background())
		f = &cflight{done: make(chan struct{}), ctx: ctx, cancel: cancel}
		c.flights[digest] = f
		leader = true
	}
	c.mu.Unlock()
	if !leader {
		c.coalesced.Add(1)
	}
	return f, leader, f.join(rctx)
}

// finishFlight unlinks the flight (so post-publish misses start fresh)
// and then wakes the waiters.
func (c *clusterCache) finishFlight(digest [sha256.Size]byte, f *cflight, status int, etag string, body []byte) {
	if c != nil {
		c.mu.Lock()
		if c.flights[digest] == f {
			delete(c.flights, digest)
		}
		c.mu.Unlock()
	}
	f.publish(status, etag, body)
}

// clusterCacheStats snapshots the cache counters for /v1/stats.
type clusterCacheStats struct {
	ShardHits   int64
	MergedHits  int64
	Coalesced   int64
	Evictions   int64
	NotModified int64
	Bytes       int64
	Entries     int
}

func (c *clusterCache) stats() clusterCacheStats {
	if c == nil {
		return clusterCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return clusterCacheStats{
		ShardHits:   c.shardHits.Load(),
		MergedHits:  c.mergedHits.Load(),
		Coalesced:   c.coalesced.Load(),
		Evictions:   c.evictions.Load(),
		NotModified: c.notModified.Load(),
		Bytes:       c.used,
		Entries:     c.ll.Len(),
	}
}

// requestDigest keys a scattered request: a tag separating the
// endpoints plus the canonical (decoded and re-marshaled) body, so
// JSON field order and whitespace do not split the cache.
func requestDigest(tag string, canonicalBody []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
	h.Write(n[:])
	h.Write([]byte(tag))
	h.Write(canonicalBody)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// coordEtagFor derives the coordinator's ETag for a fully-answered
// request: a content hash of the request digest and every shard's
// ETag, in shard order. No epoch is needed — each shard ETag already
// carries its process epoch, so any shard restart or mutation changes
// the coordinator ETag too.
func coordEtagFor(digest [sha256.Size]byte, shardTags []string) string {
	h := sha256.New()
	h.Write([]byte("cluster"))
	h.Write(digest[:])
	var n [8]byte
	for _, tag := range shardTags {
		binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
		h.Write(n[:])
		h.Write([]byte(tag))
	}
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatches mirrors the server package's If-None-Match comparison:
// "*", or any member of the comma list, weak prefixes stripped.
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, part := range strings.Split(ifNoneMatch, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// sameTags reports whether two shard-ETag slices are identical.
func sameTags(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// encodeJSON marshals v exactly as writeJSON puts it on the wire
// (trailing newline included).
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encoding response"}` + "\n")
	}
	return append(b, '\n')
}

package server

// The rank result cache: a byte-bounded LRU of fully-encoded rank and
// batch responses, fenced by the store's mutation generation so a stale
// answer is structurally impossible, with a singleflight layer so N
// concurrent identical misses share one rank computation.
//
// Keying. An entry is keyed by (canonical request digest, store
// generation). The canonical digest is computed over the *resolved*
// request — train sketch content digest (not its name or its base64
// spelling), min-join with the default applied, K with the default
// applied, workers after clamping to the server bound, the cascade
// margin with its zero-means-default and negative-means-disabled
// conventions collapsed — so two requests collide exactly when the
// server would compute bit-identical rankings for both, and nothing
// else. The generation is read *before* the ranking's manifest
// snapshot: the snapshot then reflects that generation or a newer one,
// so an entry can serve a concurrent reader fresher data than it asked
// for (linearizable) but never older data, and any Put or Delete that
// completes before a query begins moves Gen and misses every older
// entry. Invalidation is therefore free: stale entries become
// unreachable the moment the generation moves and age out of the LRU.
//
// Singleflight. A miss enters a per-key flight. The first caller (the
// leader) admits through the weighted semaphore and computes the
// ranking; every concurrent identical miss joins as a waiter and
// receives the leader's encoded response — or its error — without
// holding semaphore capacity. The flight's computation context is
// refcounted across all participants: it is cancelled only when every
// joined request has gone away, so a leader whose client disconnects
// does not poison the waiters, while a flight nobody wants anymore
// aborts and frees its semaphore slots.
//
// ETags. Every 200 rank/batch response carries a strong ETag derived
// from (process epoch, canonical digest, generation). The epoch is
// random per server start: a restarted shard resets its generation
// counter, and without the epoch a client (or cluster coordinator)
// holding an ETag from the previous process could revalidate against a
// different catalog that happens to share the generation number. The
// ETag is computable before ranking, so If-None-Match revalidation
// costs no estimation and no semaphore admission even when the result
// cache is disabled.

import (
	"container/list"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"misketch/internal/mi"
	"misketch/internal/store"
)

// cacheKey identifies one cacheable response: the canonical request
// digest plus the store generation it was computed against.
type cacheKey struct {
	digest [sha256.Size]byte
	gen    uint64
}

// cacheEntry is one cached encoded response.
type cacheEntry struct {
	key  cacheKey
	etag string
	body []byte
}

// cacheEntryOverhead approximates the bookkeeping bytes an entry costs
// beyond its body: key, etag, list element, map bucket share.
const cacheEntryOverhead = 160

func (e *cacheEntry) bytes() int64 {
	return int64(len(e.body)) + int64(len(e.etag)) + cacheEntryOverhead
}

// flight is one in-progress rank computation shared by all concurrent
// identical misses.
type flight struct {
	done chan struct{}

	// ctx is the computation context. It is cancelled when refs — the
	// number of requests still interested in the result — drops to
	// zero, so the leader's semaphore wait and ranking abort exactly
	// when no client is left to receive the answer.
	ctx    context.Context
	cancel context.CancelFunc
	refs   int64
	refMu  sync.Mutex

	// Published result, valid after done closes: the exact status and
	// body every participant writes, plus the ETag for 200s.
	status int
	etag   string
	body   []byte
}

// join registers one request's interest in the flight and returns a
// release func the request must call exactly once when it stops
// waiting (normally via defer). The request's own context is watched
// so a client that disconnects mid-wait releases automatically.
func (f *flight) join(rctx context.Context) (release func()) {
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
				case <-f.done: // published; cancel frees nothing of value
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

// publish resolves the flight. The cancel releases the computation
// context's resources; the result is already out, so aborting nothing.
func (f *flight) publish(status int, etag string, body []byte) {
	f.status, f.etag, f.body = status, etag, body
	close(f.done)
	f.cancel()
}

// resultCache is the byte-bounded LRU plus the singleflight table.
// A nil *resultCache disables caching and coalescing entirely (every
// lookup misses, joinFlight always elects a leader); the ETag protocol
// does not depend on it.
type resultCache struct {
	mu      sync.Mutex
	max     int64
	used    int64
	ll      *list.List // front = most recently used
	byKey   map[cacheKey]*list.Element
	flights map[cacheKey]*flight

	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	evictions   atomic.Int64
	notModified atomic.Int64
}

// newResultCache returns a cache bounded to maxBytes; maxBytes <= 0
// returns nil (caching and coalescing off).
func newResultCache(maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		return nil
	}
	return &resultCache{
		max:     maxBytes,
		ll:      list.New(),
		byKey:   make(map[cacheKey]*list.Element),
		flights: make(map[cacheKey]*flight),
	}
}

// get returns the cached encoded response for key, marking it most
// recently used.
func (c *resultCache) get(key cacheKey) (etag string, body []byte, ok bool) {
	if c == nil {
		return "", nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.byKey[key]
	if !found {
		c.misses.Add(1)
		return "", nil, false
	}
	c.ll.MoveToFront(e)
	c.hits.Add(1)
	ent := e.Value.(*cacheEntry)
	return ent.etag, ent.body, true
}

// add inserts an encoded response, evicting least-recently-used
// entries past the byte bound. An entry larger than the whole bound is
// not cached at all — admitting it would evict everything and then
// still break the used <= max invariant.
func (c *resultCache) add(key cacheKey, etag string, body []byte) {
	if c == nil {
		return
	}
	ent := &cacheEntry{key: key, etag: etag, body: body}
	sz := ent.bytes()
	if sz > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		// Racing computations of the same key produce interchangeable
		// bodies; keep the newer one and fix the accounting.
		old := e.Value.(*cacheEntry)
		c.used += sz - old.bytes()
		e.Value = ent
		c.ll.MoveToFront(e)
	} else {
		c.byKey[key] = c.ll.PushFront(ent)
		c.used += sz
	}
	for c.used > c.max {
		last := c.ll.Back()
		lent := last.Value.(*cacheEntry)
		c.ll.Remove(last)
		delete(c.byKey, lent.key)
		c.used -= lent.bytes()
		c.evictions.Add(1)
	}
}

// joinFlight returns the in-progress flight for key, creating one (and
// electing the caller leader) if none exists. With caching disabled
// (nil receiver) every caller is a solo leader over its own context —
// the uncoalesced pre-cache behavior.
func (c *resultCache) joinFlight(rctx context.Context, key cacheKey) (f *flight, leader bool, release func()) {
	if c == nil {
		ctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), ctx: ctx, cancel: cancel}
		return f, true, f.join(rctx)
	}
	c.mu.Lock()
	f, ok := c.flights[key]
	if !ok {
		ctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), ctx: ctx, cancel: cancel}
		c.flights[key] = f
		leader = true
	}
	c.mu.Unlock()
	if !leader {
		c.coalesced.Add(1)
	}
	return f, leader, f.join(rctx)
}

// finishFlight unlinks the flight so later misses start a fresh
// computation, then publishes the result to the waiters. Unlink must
// precede publish: a waiter woken by publish may immediately retry and
// must not rejoin the spent flight.
func (c *resultCache) finishFlight(key cacheKey, f *flight, status int, etag string, body []byte) {
	if c != nil {
		c.mu.Lock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		c.mu.Unlock()
	}
	f.publish(status, etag, body)
}

// stats snapshots the cache counters.
type resultCacheStats struct {
	Hits        int64
	Misses      int64
	Coalesced   int64
	Evictions   int64
	NotModified int64
	Bytes       int64
	Entries     int
}

func (c *resultCache) stats() resultCacheStats {
	if c == nil {
		return resultCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return resultCacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		Evictions:   c.evictions.Load(),
		NotModified: c.notModified.Load(),
		Bytes:       c.used,
		Entries:     c.ll.Len(),
	}
}

// --- canonical request digests -------------------------------------

// rankParams is a rank request with every default resolved and every
// equivalence collapsed — the exact inputs the ranking depends on.
// Two requests produce bit-identical rankings iff their rankParams
// (plus train content digests) are equal.
type rankParams struct {
	prefix    string
	minJoin   int
	k         int
	top       int
	workers   int
	noCascade bool
	margin    float64
	// minMI is the rank request's result floor (0 when absent); batch
	// requests have none.
	minMI float64
}

// resolveRankParams collapses a decoded rank request's shared knobs to
// canonical form: min_join nil means the default confidence filter,
// k 0 means the estimator default, workers is clamped to the server
// bound, cascade margin 0 means the calibrated default and every
// negative value means "no margin" identically.
func resolveRankParams(prefix string, minJoin *int, k, top, workers int, noCascade bool, margin float64, maxWorkers int) rankParams {
	p := rankParams{prefix: prefix, top: top, noCascade: noCascade}
	p.minJoin = defaultMinJoin
	if minJoin != nil {
		p.minJoin = *minJoin
	}
	p.k = k
	if p.k == 0 {
		p.k = mi.DefaultK
	}
	p.workers = workers
	if p.workers <= 0 || p.workers > maxWorkers {
		p.workers = maxWorkers
	}
	switch {
	case margin == 0:
		p.margin = store.DefaultCascadeMargin
	case margin < 0:
		p.margin = -1
	default:
		p.margin = margin
	}
	return p
}

func (p rankParams) hashInto(h *digestWriter) {
	h.str(p.prefix)
	h.int64(int64(p.minJoin))
	h.int64(int64(p.k))
	h.int64(int64(p.top))
	h.int64(int64(p.workers))
	h.bool(p.noCascade)
	h.float(p.margin)
	h.float(p.minMI)
}

// canonicalRankDigest is the canonical digest of a single rank query:
// the train sketch's content digest plus the resolved shared knobs.
func canonicalRankDigest(train probeDigest, p rankParams) [sha256.Size]byte {
	h := newDigestWriter("rank")
	h.bytes(train[:])
	p.hashInto(h)
	return h.sum()
}

// canonicalBatchDigest is the canonical digest of a batch rank query:
// the ordered (response name, train content digest) pairs plus the
// resolved shared knobs. Order matters — the response lists queries in
// request order, so a reordered batch is a different request.
func canonicalBatchDigest(names []string, trains []probeDigest, p rankParams) [sha256.Size]byte {
	h := newDigestWriter("batch")
	h.int64(int64(len(names)))
	for i := range names {
		h.str(names[i])
		h.bytes(trains[i][:])
	}
	p.hashInto(h)
	return h.sum()
}

// digestWriter is a length-prefixed sha256 builder: every field is
// written with its length (or a fixed width), so no two distinct field
// sequences can collide by concatenation.
type digestWriter struct{ h hash.Hash }

func newDigestWriter(tag string) *digestWriter {
	w := &digestWriter{h: sha256.New()}
	w.str(tag)
	return w
}

func (w *digestWriter) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	w.h.Write(n[:])
	w.h.Write(b)
}
func (w *digestWriter) str(s string) { w.bytes([]byte(s)) }
func (w *digestWriter) int64(v int64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	w.h.Write(n[:])
}
func (w *digestWriter) bool(v bool) {
	if v {
		w.int64(1)
	} else {
		w.int64(0)
	}
}
func (w *digestWriter) float(v float64) { w.int64(int64(math.Float64bits(v))) }
func (w *digestWriter) sum() [sha256.Size]byte {
	var out [sha256.Size]byte
	copy(out[:], w.h.Sum(nil))
	return out
}

// --- ETags ----------------------------------------------------------

// newEpoch draws the server's ETag epoch: 8 random bytes per process
// start, so ETags from a previous incarnation of this address can
// never validate against this one even if the generation counters
// coincide.
func newEpoch() [8]byte {
	var e [8]byte
	if _, err := rand.Read(e[:]); err != nil {
		// Entropy exhaustion is effectively fatal elsewhere; a fixed
		// epoch only costs cross-restart revalidation correctness, so
		// fall back to a process-unique-ish constant rather than dying.
		copy(e[:], "misketch")
	}
	return e
}

// etagFor derives the strong ETag for (epoch, canonical digest,
// generation): 16 hex bytes of a second-preimage-resistant hash,
// quoted per RFC 9110.
func etagFor(epoch [8]byte, digest [sha256.Size]byte, gen uint64) string {
	h := sha256.New()
	h.Write(epoch[:])
	h.Write(digest[:])
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], gen)
	h.Write(g[:])
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatches reports whether an If-None-Match header value matches
// the given ETag: a literal "*", or any member of the comma-separated
// list (weak-comparison prefixes stripped — the server only ever emits
// strong ETags, and W/"x" must still revalidate against "x").
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

// writeCachedResponse writes an already-encoded 200 JSON response with
// its ETag — the single code path hits, coalesced waiters, and fresh
// computations all exit through, so every outcome emits bit-identical
// bytes and headers.
func writeCachedResponse(w http.ResponseWriter, etag string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// noStore reports whether the request's Cache-Control carries the
// no-store directive.
func noStore(h http.Header) bool {
	for _, v := range h.Values("Cache-Control") {
		for _, d := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(d), "no-store") {
				return true
			}
		}
	}
	return false
}

// writeNotModified answers an If-None-Match revalidation: 304, no
// body, the current ETag so the client can keep revalidating.
func writeNotModified(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusNotModified)
}

// replayFlight writes a published flight result for a coalesced
// waiter: 200s carry the shared ETag and body, error statuses replay
// the leader's error body verbatim.
func replayFlight(w http.ResponseWriter, f *flight) {
	if f.status == http.StatusOK {
		writeCachedResponse(w, f.etag, f.body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(f.status)
	_, _ = w.Write(f.body)
}

var errCoalescedCancel = fmt.Errorf("client cancelled while coalesced behind an identical in-flight query")

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"misketch"
)

// span is one timed interval of a traced request. Spans of one request
// share Req. Shard spans cannot carry the coordinator's request ID (it
// forwards none), so they carry Key, a hash of the train sketch in the
// request body, and are matched to their coordinator span afterwards.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Shard  int    `json:"shard"`
	Index  int    `json:"index,omitempty"` // client spans: train or write index
	Key    uint64 `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) add(s span) {
	if tr == nil || !tr.on.Load() {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// recorded copies the spans recorded so far.
func (tr *tracer) recorded() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return slices.Clone(tr.spans)
}

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.t0).Nanoseconds() }

func (tr *tracer) clientSpan(id int64, index int, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.add(span{Req: id, Name: name, Index: index, Start: tr.ns(start), End: tr.ns(end)})
}

func headerID(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	return id
}

// bodyKey reads a rank request body, puts it back, and hashes its
// train sketch.
func bodyKey(r *http.Request) uint64 {
	b, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(b))
	const field = `"sketch":"`
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		return 0
	}
	b = b[i+len(field):]
	if j := bytes.IndexByte(b, '"'); j >= 0 {
		b = b[:j]
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

var nodeSpanNames = map[string]string{
	"/v1/rank": "server.rank", "/v1/sketch": "server.sketch", "/v1/put": "server.put",
}

// wrapNode times a node's ServeHTTP. Behind a coordinator (shard) the
// rank span is keyed by content instead of by request ID.
func (tr *tracer) wrapNode(shard int, h http.Handler, behindCoordinator bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sp := span{Req: headerID(r), Name: nodeSpanNames[r.URL.Path], Parent: "client", Shard: shard}
		if sp.Name == "" {
			sp.Name = "server.other"
		}
		if behindCoordinator && sp.Name == "server.rank" {
			sp.Req, sp.Key, sp.Parent = 0, bodyKey(r), "cluster.rank"
		}
		h.ServeHTTP(w, r)
		sp.Start, sp.End = tr.ns(start), tr.ns(time.Now())
		tr.add(sp)
	})
}

// wrapCoordinator times the coordinator's ServeHTTP.
func (tr *tracer) wrapCoordinator(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sp := span{Req: headerID(r), Name: "cluster.rank", Parent: "client", Shard: -1}
		if r.URL.Path == "/v1/rank" {
			sp.Key = bodyKey(r)
		}
		h.ServeHTTP(w, r)
		sp.Start, sp.End = tr.ns(start), tr.ns(time.Now())
		tr.add(sp)
	})
}

// write dumps the spans as JSON lines after a header line.
func (tr *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(header)
	for _, s := range tr.recorded() {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot is every counter the per-layer metrics difference.
type snapshot struct {
	nodes           []misketch.StatsResponse
	coord           misketch.ClusterStatsResponse
	totalAlloc      uint64
	gcCPU, totalCPU float64
}

func (d *runner) snap() snapshot {
	var s snapshot
	for _, n := range d.dep.nodes {
		s.nodes = append(s.nodes, n.srv.Stats())
	}
	if d.dep.coord != nil {
		s.coord = d.dep.coord.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc = ms.TotalAlloc
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 && sample[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = sample[0].Value.Float64(), sample[1].Value.Float64()
	}
	return s
}

// sum adds f over the nodes of a snapshot.
func (s snapshot) sum(f func(misketch.StatsResponse) int64) int64 {
	var n int64
	for _, st := range s.nodes {
		n += f(st)
	}
	return n
}

// sampleQueue records the rank-admission queue length across the nodes
// every 10 ms until stop is closed.
func (d *runner) sampleQueue(stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			q := 0
			for _, n := range d.dep.nodes {
				q += n.srv.Stats().Server.RanksQueued
			}
			out = append(out, float64(q))
		}
	}
}

// replayLimit bounds how many traced requests are replayed through the
// library after the window.
const replayLimit = 48

// replays holds per-call timings of the library replays.
type replays struct {
	decode, compile, rank, pair, parse, build []float64 // ms
}

// replay re-runs traced requests' inputs through each module's public
// functions — ReadSketch, CompileTrain, Store.RankQuery with the
// compiled probe (single node), EstimateMIScratch over the returned
// top-K, and ReadCSV plus the candidate sketch build for writes — and
// records a span per call under the request's ID.
func (d *runner) replay(ctx context.Context) (replays, error) {
	var out replays
	type req struct {
		id    int64
		index int
	}
	var ranks, writes []req
	seen := map[int]bool{}
	seenW := map[int]bool{}
	for _, s := range d.tr.recorded() {
		switch {
		case s.Name == "client.rank" && !seen[s.Index] && len(ranks) < replayLimit:
			seen[s.Index] = true
			ranks = append(ranks, req{s.Req, s.Index})
		case s.Name == "client.write" && !seenW[s.Index] && len(writes) < replayLimit:
			seenW[s.Index] = true
			writes = append(writes, req{s.Req, s.Index})
		}
	}
	record := func(id int64, name string, a, b time.Time) {
		d.tr.add(span{Req: id, Name: name, Parent: "replay", Start: d.tr.ns(a), End: d.tr.ns(b)})
	}
	scratch := new(misketch.EstimatorScratch)
	single := len(d.dep.nodes) == 1
	for _, q := range ranks {
		raw, _, err := d.train(q.index)
		if err != nil {
			return out, err
		}
		t0 := time.Now()
		sk, err := misketch.ReadSketch(bytes.NewReader(raw))
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		probe := misketch.CompileTrain(sk)
		t2 := time.Now()
		record(q.id, "replay.read_sketch", t0, t1)
		record(q.id, "replay.compile_train", t1, t2)
		out.decode = append(out.decode, msOf(t1.Sub(t0)))
		out.compile = append(out.compile, msOf(t2.Sub(t1)))
		// The reference store ranks the same catalog: on a single node it
		// is the served store itself (the timed replay), behind a
		// coordinator the union catalog (names only).
		t3 := time.Now()
		ranked, _, err := d.ref.RankQuery(ctx, sk, misketch.RankOptions{
			Prefix: namePrefix, MinJoinSize: minJoin, K: misketch.DefaultK, TopK: topK, Probe: probe,
		})
		if err != nil {
			return out, err
		}
		t4 := time.Now()
		if single {
			record(q.id, "replay.rank_query", t3, t4)
			out.rank = append(out.rank, msOf(t4.Sub(t3)))
		}
		for _, r := range ranked {
			cand, err := d.ref.Get(r.Name)
			if err != nil {
				return out, err
			}
			a := time.Now()
			if _, err := misketch.EstimateMIScratch(probe, cand, scratch); err != nil {
				return out, err
			}
			b := time.Now()
			record(q.id, "replay.estimate_mi", a, b)
			out.pair = append(out.pair, msOf(b.Sub(a)))
		}
	}
	for _, q := range writes {
		csv := d.writes[q.index].csv
		t0 := time.Now()
		tb, err := misketch.ReadCSV(bytes.NewReader(csv))
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		if _, err := misketch.SketchCandidate(tb, "key", "v", misketch.Options{Size: sketchSize}); err != nil {
			return out, err
		}
		t2 := time.Now()
		record(q.id, "replay.read_csv", t0, t1)
		record(q.id, "replay.sketch_build", t1, t2)
		out.parse = append(out.parse, msOf(t1.Sub(t0)))
		out.build = append(out.build, msOf(t2.Sub(t1)))
	}
	return out, nil
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	before, after snapshot
	ops           int64 // operations completed in the traced window
	tracedQPS     float64
	untracedQPS   float64
	queue         []float64
	rep           replays
	setups        []setupTimes
	catalogBytes  int64
	sketches      int64
}

// layerMetrics derives every per-layer metric from the traced window.
// A metric whose layer a workload does not exercise reads 0.
func (d *runner) layerMetrics(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	b, a := in.before, in.after
	delta := func(f func(misketch.StatsResponse) int64) float64 { return float64(a.sum(f) - b.sum(f)) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	cluster := d.dep.coord != nil

	// Spans by request.
	client := map[int64]span{}
	top := map[int64]span{}       // node span (single) or coordinator span
	shards := map[uint64][]span{} // shard rank spans by content key
	writes := map[int64]float64{}
	var nodeRank []float64
	for _, s := range d.tr.recorded() {
		switch s.Name {
		case "client.rank":
			client[s.Req] = s
		case "cluster.rank":
			top[s.Req] = s
		case "server.rank":
			if cluster {
				shards[s.Key] = append(shards[s.Key], s)
			} else {
				top[s.Req] = s
			}
			nodeRank = append(nodeRank, msOf(s.dur()))
		case "server.sketch", "server.put":
			writes[s.Req] += msOf(s.dur())
		}
	}
	var httpMS, share, coordMS, slowest, self []float64
	for id, c := range client {
		t, ok := top[id]
		if !ok {
			continue
		}
		httpMS = append(httpMS, msOf(c.dur()-t.dur()))
		share = append(share, float64(t.dur())/float64(c.dur()))
		if !cluster {
			continue
		}
		coordMS = append(coordMS, msOf(t.dur()))
		var slow time.Duration
		var inner []span
		for _, s := range shards[t.Key] {
			if s.Start >= t.Start && s.End <= t.End {
				inner = append(inner, s)
				slow = max(slow, s.dur())
			}
		}
		slowest = append(slowest, msOf(slow))
		self = append(self, msOf(t.dur()-unionDur(inner)))
	}
	var writeMS []float64
	for _, v := range writes {
		writeMS = append(writeMS, v)
	}

	m["server.handler_ms"] = p50(nodeRank)
	m["server.http_ms"] = p50(httpMS)
	entryRanks := delta(func(s misketch.StatsResponse) int64 { return s.Server.RankRequests })
	if cluster {
		entryRanks = float64(a.coord.Coordinator.RankRequests - b.coord.Coordinator.RankRequests)
		m["server.result_hit_ratio"] = ratio(float64(a.coord.Coordinator.ResultMergedHits-b.coord.Coordinator.ResultMergedHits), entryRanks)
		m["server.coalesced_ratio"] = ratio(float64(a.coord.Coordinator.ResultCoalesced-b.coord.Coordinator.ResultCoalesced), entryRanks)
	} else {
		m["server.result_hit_ratio"] = ratio(delta(func(s misketch.StatsResponse) int64 { return s.Server.ResultHits }), entryRanks)
		m["server.coalesced_ratio"] = ratio(delta(func(s misketch.StatsResponse) int64 { return s.Server.ResultCoalesced }), entryRanks)
	}
	ph := delta(func(s misketch.StatsResponse) int64 { return s.Server.ProbeHits })
	pm := delta(func(s misketch.StatsResponse) int64 { return s.Server.ProbeMisses })
	m["server.probe_hit_ratio"] = ratio(ph, ph+pm)
	m["server.queued_p50"] = p50(in.queue)
	m["server.write_handler_ms"] = p50(writeMS)

	queries := delta(func(s misketch.StatsResponse) int64 { return s.Store.RankQueries })
	perQuery := func(f func(misketch.StatsResponse) int64) float64 { return ratio(delta(f), queries) }
	m["store.rank_ms"] = p50(in.rep.rank)
	m["store.decodes_per_query"] = perQuery(func(s misketch.StatsResponse) int64 { return s.Store.DiskReads })
	m["store.skipped_per_query"] = perQuery(func(s misketch.StatsResponse) int64 { return s.Store.CandidatesSkippedNoDecode })
	ch := delta(func(s misketch.StatsResponse) int64 { return s.Store.CacheHits })
	cm := delta(func(s misketch.StatsResponse) int64 { return s.Store.CacheMisses })
	m["store.cache_hit_ratio"] = ratio(ch, ch+cm)
	m["store.pruned_pairs_per_query"] = perQuery(func(s misketch.StatsResponse) int64 { return s.Store.PrunedPairs })
	var ingest, seal []float64
	for _, t := range in.setups {
		ingest = append(ingest, t.ingest.Seconds())
		seal = append(seal, t.seal.Seconds())
	}
	m["store.ingest_s"] = p50(ingest)
	m["store.seal_s"] = p50(seal)
	m["store.bytes_per_sketch"] = ratio(float64(in.catalogBytes), float64(in.sketches))

	exact := delta(func(s misketch.StatsResponse) int64 { return s.Store.CascadeExact })
	cheap := delta(func(s misketch.StatsResponse) int64 { return s.Store.CascadeCheapOnly })
	m["mi.exact_per_query"] = ratio(exact, queries)
	m["mi.cheap_only_per_query"] = ratio(cheap, queries)
	m["mi.prune_ratio"] = ratio(cheap, cheap+exact)
	m["mi.rescues_per_query"] = perQuery(func(s misketch.StatsResponse) int64 { return s.Store.CascadeMarginRescues })
	m["mi.exact_pair_us"] = 1000 * p50(in.rep.pair)

	m["core.train_decode_us"] = 1000 * p50(in.rep.decode)
	m["core.probe_compile_ms"] = p50(in.rep.compile)
	m["core.sketch_build_ms"] = p50(in.rep.build)
	m["table.csv_parse_ms"] = p50(in.rep.parse)

	m["cluster.handler_ms"] = p50(coordMS)
	m["cluster.shard_handler_ms"] = p50(slowest)
	m["cluster.self_ms"] = p50(self)
	if cluster {
		m["cluster.exact_per_query"] = ratio(exact, entryRanks)
	} else {
		m["cluster.exact_per_query"] = 0
	}

	ops := float64(in.ops)
	m["runtime.alloc_kb_per_op"] = ratio(float64(a.totalAlloc-b.totalAlloc)/1024, ops)
	m["runtime.gc_cpu_fraction"] = ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU)

	m["trace.span_share"] = p50(share)
	m["trace.overhead_ratio"] = ratio(in.tracedQPS, in.untracedQPS)
	return m
}

// unionDur is the length of the union of the spans' intervals.
func unionDur(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	start := int64(-1)
	for _, s := range spans {
		switch {
		case start < 0:
			start, end = s.Start, s.End
		case s.Start > end:
			total += end - start
			start, end = s.Start, s.End
		case s.End > end:
			end = s.End
		}
	}
	if start >= 0 {
		total += end - start
	}
	return time.Duration(total)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

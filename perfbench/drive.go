package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"misketch"
)

// clients is the closed-loop concurrency: one client per core of the
// 2-vCPU reference machine. A discovery caller waits for each ranking
// before asking again, so the loop is closed.
const clients = 2

// warmOps is how many operations each client sends before the clock.
const warmOps = 8

// probeWrites is how many writes a read-only workload paces over a
// window, under names starting with probePrefix.
const (
	probeWrites = 240
	probePrefix = "probe/"
)

// reqHeader carries the benchmark's request ID to the node and
// coordinator wrappers; the servers ignore it.
const reqHeader = "X-Bench-Req"

type rankReply struct {
	Ranked  []misketch.RankedResult `json:"ranked"`
	Partial bool                    `json:"partial"`
}

// runner sends a workload's traffic and checks every answer.
type runner struct {
	w   workload
	c   *corpus
	dep *deployment
	hc  *http.Client
	tr  *tracer

	// raws and bodies are the pre-generated trains (serialized sketch,
	// /v1/rank body); train 0 is reserved for the result-cache
	// assertion, then come the warm-up trains, then the window's.
	raws, bodies [][]byte
	cursor       atomic.Int64 // next distinct train
	onTheFly     atomic.Int64 // trains generated during a window

	// ref holds the whole catalog for reference rankings: the node's own
	// store, or the union of the shards in one in-memory store.
	ref *misketch.Store
	// oracle maps each sampled train to its expected top-K; it is
	// filled before the clients start and only read afterwards.
	oracle   map[int][]misketch.RankedSketch
	sampleLo int // sampled trains are [sampleLo, sampleLo+w.samples)

	writes     []writeOp
	writeOwner []int // shard owning each write's name
	writeNext  atomic.Int64
	reqSeq     atomic.Int64
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// train returns train t, generating it when it lies past the pool.
func (d *runner) train(t int) (raw, body []byte, err error) {
	if t < len(d.raws) {
		return d.raws[t], d.bodies[t], nil
	}
	d.onTheFly.Add(1)
	raw, err = d.c.trainSketch(t)
	return raw, rankBody(raw), err
}

// generate builds the train pool on both cores, before any clock.
func (d *runner) generate(n int) error {
	d.raws, d.bodies = make([][]byte, n), make([][]byte, n)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for t := g; t < n; t += clients {
				raw, err := d.c.trainSketch(t)
				if err != nil {
					errs[g] = err
					return
				}
				d.raws[t], d.bodies[t] = raw, rankBody(raw)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	d.writes = d.c.writes()
	if d.w.writeEvery == 0 {
		for k := range d.writes {
			d.writes[k].name = probePrefix + d.writes[k].name
		}
	}
	d.writeOwner = make([]int, len(d.writes))
	pool := d.c.pool()
	for k := range d.writes {
		d.writeOwner[k] = pool[k%len(pool)] % d.w.shards
	}
	return nil
}

// computeOracle ranks the sampled trains with the reference semantics
// (no cascade, no index) on ref.
func (d *runner) computeOracle(ctx context.Context) error {
	d.oracle = make(map[int][]misketch.RankedSketch, d.w.samples)
	for t := d.sampleLo; t < d.sampleLo+d.w.samples; t++ {
		want, err := referenceRank(ctx, d.ref, d.raws[t])
		if err != nil {
			return err
		}
		d.oracle[t] = want
	}
	return nil
}

func referenceRank(ctx context.Context, ref *misketch.Store, raw []byte) ([]misketch.RankedSketch, error) {
	sk, err := misketch.ReadSketch(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	want, _, err := ref.RankQuery(ctx, sk, misketch.RankOptions{
		Prefix: namePrefix, MinJoinSize: minJoin, K: misketch.DefaultK, TopK: topK,
		NoCascade: true, NoIndex: true,
	})
	if err == nil && len(want) != topK {
		err = fmt.Errorf("reference ranking has %d results, want %d", len(want), topK)
	}
	return want, err
}

// rank posts one rank request and returns the decoded answer.
func (d *runner) rank(base string, body []byte, id int64) (*rankReply, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/rank", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rank: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var rr rankReply
	if err := json.Unmarshal(b, &rr); err != nil {
		return nil, fmt.Errorf("rank: decoding answer: %w", err)
	}
	if rr.Partial {
		return nil, fmt.Errorf("rank: partial answer")
	}
	return &rr, nil
}

// write uploads op's CSV to /v1/sketch as a candidate and stores the
// returned sketch under op.name with /v1/put.
func (d *runner) write(base string, op writeOp, id int64) error {
	hdr := http.Header{reqHeader: {strconv.FormatInt(id, 10)}}
	b, err := d.post(base+"/v1/sketch?key=key&value=v&role=candidate&size="+strconv.Itoa(sketchSize), "text/csv", op.csv, hdr)
	if err != nil {
		return err
	}
	var sr misketch.SketchReply
	if err := json.Unmarshal(b, &sr); err != nil {
		return fmt.Errorf("sketch: decoding answer: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(sr.Sketch)
	if err != nil {
		return fmt.Errorf("sketch: %w", err)
	}
	_, err = d.post(base+"/v1/put?name="+url.QueryEscape(op.name), "application/octet-stream", raw, hdr)
	return err
}

func (d *runner) post(u, ctype string, body []byte, hdr http.Header) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = hdr.Clone()
	req.Header.Set("Content-Type", ctype)
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// checkAnswer validates an answer's shape — K results, (MI desc, name
// asc) order, names under the prefix — and, for a sampled train, its
// names and MI bit for bit against the oracle.
func checkAnswer(got []misketch.RankedResult, want []misketch.RankedSketch) error {
	if len(got) != topK {
		return fmt.Errorf("%d results, want %d", len(got), topK)
	}
	for i, r := range got {
		if !strings.HasPrefix(r.Name, namePrefix) {
			return fmt.Errorf("result %q outside prefix %q", r.Name, namePrefix)
		}
		if i > 0 {
			p := got[i-1]
			if p.MI < r.MI || (p.MI == r.MI && p.Name >= r.Name) {
				return fmt.Errorf("results %d and %d out of (MI desc, name asc) order", i-1, i)
			}
		}
	}
	if want == nil {
		return nil
	}
	for i := range want {
		if got[i].Name != want[i].Name || math.Float64bits(got[i].MI) != math.Float64bits(want[i].MI) {
			return fmt.Errorf("result %d is (%s, %v), reference has (%s, %v)", i, got[i].Name, got[i].MI, want[i].Name, want[i].MI)
		}
	}
	return nil
}

// sample is one completed operation.
type sample struct {
	end time.Time
	lat time.Duration
}

// tally is one client's record of a phase.
type tally struct {
	rankLat, writeLat []sample
	ranks, writes     int64 // completed and correct
	attempted, failed int64
	wrong             int64 // answers that failed the correctness check
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.rankLat = append(t.rankLat, o.rankLat...)
	t.writeLat = append(t.writeLat, o.writeLat...)
	t.ranks += o.ranks
	t.writes += o.writes
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// nextTrain picks a client's next train: a fresh one from the shared
// cursor, or a zipf draw over the hot trains.
func (d *runner) nextTrain(z *rand.Zipf) int {
	if z != nil {
		return int(z.Uint64())
	}
	return int(d.cursor.Add(1) - 1)
}

// doRank sends one rank operation and records it in t.
func (d *runner) doRank(t *tally, train int) {
	t.attempted++
	_, body, err := d.train(train)
	if err != nil {
		t.fail(err)
		return
	}
	id := d.reqSeq.Add(1)
	start := time.Now()
	rr, err := d.rank(d.dep.readURL(), body, id)
	end := time.Now()
	if err != nil {
		t.fail(err)
		return
	}
	d.tr.clientSpan(id, train, "client.rank", start, end)
	if err := checkAnswer(rr.Ranked, d.oracle[train]); err != nil {
		t.wrong++
		t.fail(fmt.Errorf("train %d: %w", train, err))
		return
	}
	t.ranks++
	t.rankLat = append(t.rankLat, sample{end, end.Sub(start)})
}

// doWrite sends one write operation (sketch upload plus put).
func (d *runner) doWrite(t *tally) {
	t.attempted++
	k := int(d.writeNext.Add(1)-1) % len(d.writes)
	id := d.reqSeq.Add(1)
	start := time.Now()
	err := d.write(d.dep.nodes[d.writeOwner[k]].url, d.writes[k], id)
	end := time.Now()
	if err != nil {
		t.fail(err)
		return
	}
	d.tr.clientSpan(id, k, "client.write", start, end)
	t.writes++
	t.writeLat = append(t.writeLat, sample{end, end.Sub(start)})
}

// loop runs the closed loop from start: every client sends its next
// operation as soon as the previous one completes, until start+dur
// (dur > 0) or until it has sent ops operations. It returns the
// merged tally.
func (d *runner) loop(phase int, start time.Time, dur time.Duration, ops int) tally {
	tallies := make([]tally, clients)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			var z *rand.Zipf
			if d.w.zipf {
				z = rand.NewZipf(rngFor(d.c.seed, streamPick, phase*clients+c), zipfSkew, 1, hotTrains-1)
			}
			for n := 1; ; n++ {
				if (dur > 0 && !time.Now().Before(deadline)) || (ops > 0 && n > ops) {
					return
				}
				if d.w.writeEvery > 0 && n%d.w.writeEvery == 0 {
					d.doWrite(t)
				} else {
					d.doRank(t, d.nextTrain(z))
				}
			}
		}(c)
	}
	wg.Wait()
	var all tally
	for c := range tallies {
		all.merge(&tallies[c])
	}
	return all
}

// window runs the closed loop for dur while sampling CPU steal, and
// measures it over its quiet slices.
func (d *runner) window(phase int, dur time.Duration) (tally, measured) {
	slice, n := slicing(dur)
	// Every window starts from a collected heap, so the garbage that
	// set-up and earlier phases left does not vary its GC pacing.
	runtime.GC()
	start := time.Now()
	ticks := make(chan [][2]uint64, 1)
	go func() { ticks <- sampleSteal(start, slice, n) }()
	probe := make(chan tally, 1)
	if d.w.writeEvery == 0 {
		go func() { probe <- d.writeProbe(start, dur, probeWrites) }()
	} else {
		probe <- tally{}
	}
	t := d.loop(phase, start, dur, 0)
	wp := <-probe
	t.merge(&wp)
	m := measure(&t, start, slice, n, <-ticks)
	return t, m
}

// assertResultCache checks through Stats that a repeated query is
// served from the result cache on every node and on the coordinator.
func (d *runner) assertResultCache() error {
	body := d.bodies[0]
	for i, n := range d.dep.nodes {
		before := n.srv.Stats().Server.ResultHits
		for r := 0; r < 2; r++ {
			if _, err := d.rank(n.url, body, 0); err != nil {
				return err
			}
		}
		if n.srv.Stats().Server.ResultHits == before {
			return fmt.Errorf("node %d: repeated query missed the result cache", i)
		}
	}
	if d.dep.coord != nil {
		before := d.dep.coord.Stats().Coordinator.ResultMergedHits
		for r := 0; r < 2; r++ {
			if _, err := d.rank(d.dep.coordURL, body, 0); err != nil {
				return err
			}
		}
		if d.dep.coord.Stats().Coordinator.ResultMergedHits == before {
			return fmt.Errorf("coordinator: repeated query missed the result cache")
		}
	}
	return nil
}

// writeProbe paces n writes evenly over a read-only workload's window,
// so it reports write_p50_ms too; the writes land outside the ranked
// prefix and never change an answer.
func (d *runner) writeProbe(start time.Time, dur time.Duration, n int) tally {
	var t tally
	for k := 0; k < n; k++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(n))))
		d.doWrite(&t)
	}
	return t
}

// staleCheck runs after the zipf-mixed window: with traffic quiesced,
// one write promotes a pooled candidate into the top-K of every ranking,
// and the sampled (hot, hence cached) trains are asked again. A cached
// answer that survived the write fails the comparison with the
// reference ranking of the final catalog.
func (d *runner) staleCheck(ctx context.Context) (tally, error) {
	var t tally
	pool := d.c.pool()
	op := writeOp{name: d.c.name(pool[0]), csv: d.c.writeCSV(pool[0], 0, true)}
	t.attempted++
	if err := d.write(d.dep.nodes[0].url, op, 0); err != nil {
		t.fail(err)
		return t, nil
	}
	for s := d.sampleLo; s < d.sampleLo+d.w.samples; s++ {
		want, err := referenceRank(ctx, d.dep.nodes[0].st, d.raws[s])
		if err != nil {
			return t, err
		}
		if !slices.ContainsFunc(want, func(r misketch.RankedSketch) bool { return r.Name == op.name }) {
			return t, fmt.Errorf("stale-answer probe: promoted %s is not in the reference top-%d", op.name, topK)
		}
		t.attempted++
		rr, err := d.rank(d.dep.readURL(), d.bodies[s], 0)
		if err != nil {
			t.fail(err)
			continue
		}
		if err := checkAnswer(rr.Ranked, want); err != nil {
			t.wrong++
			t.fail(fmt.Errorf("after quiesce, train %d: %w", s, err))
		}
	}
	return t, nil
}

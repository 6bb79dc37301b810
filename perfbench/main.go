// Command perfbench is the repository's benchmark: it builds a
// workload's catalog through the public API, serves it in-process on
// loopback listeners exactly as `misketch serve` configures a node (and,
// for the cluster workload, three shards behind a coordinator), drives
// closed-loop traffic from two clients, checks every answer, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	go run . --workload dense-unique --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the
// window untraced and half traced, replays the traced requests through
// each module's public functions, and reports the per-layer metrics.
// Spans go to .bench_build/trace/ under the working directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"misketch"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the service sees. fail_ratio is
// carried by the result's attempted and failed counts.
var endToEnd = []metricSpec{
	{"rank_qps", "1/s"},
	{"rank_p50_ms", "ms"},
	{"rank_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"catalog_mb", "MB"},
}

// perLayer are the traced run's metrics, named by module.
var perLayer = []metricSpec{
	{"server.handler_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.result_hit_ratio", "ratio"},
	{"server.coalesced_ratio", "ratio"},
	{"server.probe_hit_ratio", "ratio"},
	{"server.queued_p50", "count"},
	{"server.write_handler_ms", "ms"},
	{"store.rank_ms", "ms"},
	{"store.decodes_per_query", "count"},
	{"store.skipped_per_query", "count"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.pruned_pairs_per_query", "count"},
	{"store.ingest_s", "s"},
	{"store.seal_s", "s"},
	{"store.bytes_per_sketch", "B"},
	{"mi.exact_per_query", "count"},
	{"mi.cheap_only_per_query", "count"},
	{"mi.prune_ratio", "ratio"},
	{"mi.rescues_per_query", "count"},
	{"mi.exact_pair_us", "us"},
	{"core.train_decode_us", "us"},
	{"core.probe_compile_ms", "ms"},
	{"core.sketch_build_ms", "ms"},
	{"table.csv_parse_ms", "ms"},
	{"cluster.handler_ms", "ms"},
	{"cluster.shard_handler_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.exact_per_query", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.span_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run.
type config struct {
	w         workload
	seed      int64
	window    time.Duration
	trace     bool
	workDir   string // store directories, removed at exit
	spans     string // trace output file
	setupReps int    // workload.setups, fewer in tests
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	build := ".bench_build"
	cfg := config{
		w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		workDir:   filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())),
		spans:     filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)),
		setupReps: w.setups,
	}
	res, stamp, err := runWorkload(context.Background(), cfg)
	if rerr := os.RemoveAll(cfg.workDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st, _ := json.Marshal(stamp)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "stamp %s\n%s\n", st, line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload is one benchmark run: generate inputs, set up (several
// times), check the layout and caches, compute reference answers,
// warm up, measure, check again, and report.
func runWorkload(ctx context.Context, cfg config) (*result, map[string]any, error) {
	w := cfg.w
	c := newCorpus(w.shape, cfg.seed)
	d := &runner{w: w, c: c, hc: newHTTPClient()}
	defer d.hc.CloseIdleConnections()
	if cfg.trace {
		d.tr = newTracer()
	}

	// Generator work, before any clock: trains and write bodies. With
	// distinct trains, train 0 is kept for the result-cache assertion
	// and the next clients×warmOps for the warm-up; the sampled trains
	// open the window.
	n := hotTrains
	if !w.zipf {
		d.sampleLo = 1 + clients*warmOps
		n = d.sampleLo + w.samples + int(math.Ceil(float64(w.trainRate)*cfg.window.Seconds()))
		d.cursor.Store(1)
	}
	if err := d.generate(n); err != nil {
		return nil, nil, err
	}

	var setups []setupTimes
	for rep := 0; rep < cfg.setupReps; rep++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("rep%d", rep))
		runtime.GC() // each set-up starts from a collected heap
		dep, t, err := deploy(ctx, c, w.shards, dir, d.tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, t)
		if rep == cfg.setupReps-1 {
			d.dep = dep
			break
		}
		if err := errors.Join(dep.close(), os.RemoveAll(dir)); err != nil {
			return nil, nil, err
		}
	}
	defer d.dep.close()
	catalog := d.dep.catalogBytes()
	var sketches int64
	for _, nd := range d.dep.nodes {
		sketches += int64(nd.st.Stats().Sketches)
	}
	if err := d.dep.checkLayout(); err != nil {
		return nil, nil, err
	}
	if err := d.assertResultCache(); err != nil {
		return nil, nil, err
	}

	// Reference answers for the sampled trains, before the clock.
	d.ref = d.dep.nodes[0].st
	if d.dep.coord != nil {
		ref, err := unionStore(d.dep)
		if err != nil {
			return nil, nil, err
		}
		defer ref.Close()
		d.ref = ref
	}
	if err := d.computeOracle(ctx); err != nil {
		return nil, nil, err
	}

	var total tally
	warm := d.loop(0, time.Now(), 0, warmOps)
	total.merge(&warm)

	window := cfg.window
	var untraced measured
	if cfg.trace {
		// The first half runs with the wrappers idle, so the traced half's
		// qps over it is the tracing overhead.
		window /= 2
		var u tally
		u, untraced = d.window(1, window)
		total.merge(&u)
		d.tr.on.Store(true)
	}
	stopQ := make(chan struct{})
	queue := make(chan []float64, 1)
	if cfg.trace {
		go func() { queue <- d.sampleQueue(stopQ) }()
	}
	before := d.snap()
	win, m := d.window(2, window)
	after := d.snap()
	close(stopQ)
	total.merge(&win)

	// The library replays run right after the traced window; tracing
	// stops before the stale-answer probe.
	var layers map[string]float64
	if cfg.trace {
		queued := <-queue
		rep, err := d.replay(ctx)
		if err != nil {
			return nil, nil, err
		}
		d.tr.on.Store(false)
		layers = d.layerMetrics(layerInputs{
			before: before, after: after, ops: win.ranks + win.writes,
			tracedQPS: m.qps, untracedQPS: untraced.qps,
			queue: queued, rep: rep, setups: setups, catalogBytes: catalog, sketches: sketches,
		})
	}

	if w.writeEvery > 0 {
		st, err := d.staleCheck(ctx)
		if err != nil {
			return nil, nil, err
		}
		total.merge(&st)
	}

	res := &result{
		Correct:   total.wrong == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for _, s := range perLayer {
			res.Metrics[s.name] = metric{layers[s.name], s.unit}
		}
	} else {
		var setupS []float64
		for _, t := range setups {
			setupS = append(setupS, t.total.Seconds())
		}
		e2e := map[string]float64{
			"rank_qps":     m.qps,
			"rank_p50_ms":  percentile(m.rankMS, 0.50),
			"rank_p99_ms":  percentile(m.rankMS, 0.99),
			"write_p50_ms": percentile(m.writeMS, 0.50),
			"setup_s":      p50(setupS),
			"peak_rss_mb":  peakRSSMB(),
			"catalog_mb":   float64(catalog) / 1e6,
		}
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{e2e[s.name], s.unit}
		}
	}

	stamp := map[string]any{
		"workload": w.name, "seed": cfg.seed, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(), "go": runtime.Version(),
		"slices": m.slices, "quiet_slices": m.quiet, "steal": m.steal, "quiet_steal": m.quietSteal,
		"rank_samples": len(m.rankMS), "write_samples": len(m.writeMS),
		"trains_generated_in_window": d.onTheFly.Load(),
		"fail_ratio":                 float64(total.failed) / float64(max(total.attempted, 1)),
	}
	if total.firstErr != nil {
		stamp["first_error"] = total.firstErr.Error()
	}
	if cfg.trace {
		if err := d.tr.write(cfg.spans, map[string]any{"stamp": stamp}); err != nil {
			return nil, nil, err
		}
	}
	return res, stamp, nil
}

// unionStore copies every shard's sketches into one in-memory store:
// the single-node catalog the cluster's answers must equal.
func unionStore(dep *deployment) (*misketch.Store, error) {
	ref, err := misketch.OpenStoreWithOptions("", misketch.OpenStoreOptions{Backend: misketch.BackendMem})
	if err != nil {
		return nil, err
	}
	for _, nd := range dep.nodes {
		for _, m := range nd.st.Metas() {
			sk, err := nd.st.Get(m.Name)
			if err == nil {
				err = ref.Put(m.Name, sk)
			}
			if err != nil {
				ref.Close()
				return nil, err
			}
		}
	}
	return ref, nil
}

// percentile is the nearest-rank q-quantile; 0 for no samples.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func p50(v []float64) float64 { return percentile(v, 0.5) }

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

var errNoWorkload = errors.New("unknown workload")

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"misketch"
)

// catalogFiles builds shape s's catalog for seed into a fresh directory
// and returns its sealed segment files by relative path.
func catalogFiles(t *testing.T, s shape, seed int64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	dep, _, err := deploy(context.Background(), newCorpus(s, seed), 1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.close(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".seg") {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no segment files written")
	}
	return files
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// requests renders a corpus's first n rank bodies and its write bodies.
func requests(t *testing.T, c *corpus, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		raw, err := c.trainSketch(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rankBody(raw))
	}
	for _, w := range c.writes() {
		out = append(out, []byte(w.name), w.csv)
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, other := catalogFiles(t, denseShape, 7), catalogFiles(t, denseShape, 7), catalogFiles(t, denseShape, 8)
	if !sameFiles(a, b) {
		t.Error("same seed built different catalog bytes")
	}
	if sameFiles(a, other) {
		t.Error("different seeds built identical catalog bytes")
	}
	for _, s := range []shape{denseShape, sparseShape} {
		ra, rb, ro := requests(t, newCorpus(s, 7), 16), requests(t, newCorpus(s, 7), 16), requests(t, newCorpus(s, 8), 16)
		if len(ra) != len(rb) || len(ra) != len(ro) {
			t.Fatalf("request sets differ in size: %d, %d, %d", len(ra), len(rb), len(ro))
		}
		differs := false
		for i := range ra {
			if !bytes.Equal(ra[i], rb[i]) {
				t.Fatalf("sparse=%v: request %d differs under the same seed", s.sparse, i)
			}
			differs = differs || !bytes.Equal(ra[i], ro[i])
		}
		if !differs {
			t.Errorf("sparse=%v: different seeds gave identical requests", s.sparse)
		}
	}
}

// TestWritePoolIsNoise pins what keeps answers checkable while writes
// run: every overwritten candidate is pure noise, and its write CSV
// parses back to one row per key.
func TestWritePoolIsNoise(t *testing.T) {
	for _, s := range []shape{denseShape, sparseShape} {
		c := newCorpus(s, 3)
		for _, i := range c.pool() {
			if c.informative(i) {
				t.Errorf("sparse=%v: pooled candidate %d carries signal", s.sparse, i)
			}
		}
		tb, err := misketch.ReadCSV(bytes.NewReader(c.writeCSV(c.pool()[0], 0, false)))
		if err != nil {
			t.Fatal(err)
		}
		if tb.NumRows() != blockKeys {
			t.Errorf("write CSV has %d rows, want %d", tb.NumRows(), blockKeys)
		}
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricSpecs checks the metric names and caps, and that
// BENCHMARK.json describes exactly what this program measures.
func TestMetricSpecs(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; caps are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.name, m.unit)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		e := bf.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, e, m)
		}
		if m.name == "setup_s" && (e.Unit != "s" || e.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		p := bf.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, p, m)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires zero failures and every metric reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every catalog")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				smoke(t, w, trace)
			})
		}
	}
}

func smoke(t *testing.T, w workload, trace bool) {
	dir := t.TempDir()
	cfg := config{
		w: w, seed: 5, window: 3 * time.Second, trace: trace,
		workDir: filepath.Join(dir, "work"), spans: filepath.Join(dir, "spans.jsonl"), setupReps: 1,
	}
	res, stamp, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d (%v)", res.Correct, res.Attempted, res.Failed, stamp["first_error"])
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || (!trace && v.Value <= 0) {
			t.Errorf("metric %s = %+v", m.name, v)
		}
	}
}

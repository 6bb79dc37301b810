package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"misketch"
)

// Query and sketch parameters shared by every workload. They mirror
// `misketch bench`: 256-entry numeric sketches, top-10 queries with a
// 50-sample join cutoff under the "bench/" prefix.
const (
	sketchSize = 256
	topK       = 10
	minJoin    = 50
	namePrefix = "bench/"
	trainRows  = 4000
	blockKeys  = 400
	// writePool is how many noise candidates the write traffic
	// overwrites; their MI never reaches a top-10, so every answer
	// stays checkable against the pre-clock oracle while writes run.
	writePool = 32
	// writeVersions is how many distinct noise CSVs each pooled name
	// cycles through.
	writeVersions = 4
	// hotTrains is the zipf-mixed train population.
	hotTrains = 256
	zipfSkew  = 1.1
)

// shape sizes a catalog: a key universe of blocks × blockKeys keys,
// perBlock candidates on each block's keys. A train covers one block,
// so it joins perBlock candidates and the key indexes can skip the
// other blocks without a decode.
type shape struct {
	blocks, perBlock int
	// sparse selects the weak-signal value model whose top-K MI stays
	// below the cascade margin (the cheap tier then prunes nothing).
	sparse bool
}

var (
	// denseShape is the `misketch bench` corpus: 1000 candidates on
	// the same 400 keys.
	denseShape = shape{blocks: 1, perBlock: 1000}
	// sparseShape is ~20k candidates on a 40k-key universe; the decoded
	// catalog (~84 MB) exceeds the store's default 64 MiB sketch cache.
	sparseShape = shape{blocks: 100, perBlock: 200, sparse: true}
)

// workload is one catalog plus one traffic mix. Every field is derived
// from the name; the seed alone varies the generated inputs.
type workload struct {
	name, why string
	shape     shape
	shards    int
	// zipf draws reads from hotTrains trains with zipf skew instead of
	// giving every request a distinct train.
	zipf bool
	// writeEvery makes every writeEvery-th operation of a client a
	// write (0: read-only; writes are then timed after the window).
	writeEvery int
	// trainRate × window seconds distinct trains are generated before
	// the clock; a faster system draws further trains on the fly,
	// outside the latency timer.
	trainRate int
	// samples is how many trains are checked bit for bit against the
	// NoCascade/NoIndex oracle.
	samples int
	// setups is how many times a run builds and serves the catalog;
	// setup_s is their median.
	setups int
}

var workloads = []workload{
	{
		name:      "dense-unique",
		why:       "every candidate joins every train and each request is a new train: estimator tiers dominate, caches always miss",
		shape:     denseShape,
		shards:    1,
		trainRate: 200,
		samples:   6,
		setups:    5,
	},
	{
		name:      "sparse-large",
		why:       "each train joins 1% of a catalog larger than the sketch cache: key-index selection, record decode and LRU misses dominate",
		shape:     sparseShape,
		shards:    1,
		trainRate: 100,
		samples:   4,
		setups:    3,
	},
	{
		name:       "zipf-mixed",
		why:        "skewed repeat trains plus candidate overwrites: result cache, singleflight, probe cache and the write path side by side",
		shape:      denseShape,
		shards:     1,
		zipf:       true,
		writeEvery: 12,
		samples:    6,
		setups:     5,
	},
	{
		name:      "cluster-dense",
		why:       "the dense-unique catalog dealt to three shards behind a coordinator: scatter, merge and the per-shard cascade",
		shape:     denseShape,
		shards:    3,
		trainRate: 50,
		samples:   4,
		setups:    5,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Random streams: every generated value comes from a PCG stream keyed
// by (seed, stream, index), so inputs depend on the seed alone and not
// on generation order or parallelism.
const (
	streamCand = iota + 1
	streamTrain
	streamWrite
	streamPick
)

func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)<<40|uint64(i)))
}

func signal(g int) float64 { return float64(g % 20) }

// corpus generates one seeded catalog and the requests against it.
type corpus struct {
	shape
	seed int64
	keys []string
}

func newCorpus(s shape, seed int64) *corpus {
	c := &corpus{shape: s, seed: seed, keys: make([]string, s.blocks*blockKeys)}
	for g := range c.keys {
		if s.sparse {
			c.keys[g] = fmt.Sprintf("k%05d", g)
		} else {
			c.keys[g] = "g" + strconv.Itoa(g)
		}
	}
	return c
}

func (c *corpus) size() int { return c.blocks * c.perBlock }

func (c *corpus) name(i int) string {
	if c.sparse {
		return fmt.Sprintf("%ss%05d#x", namePrefix, i)
	}
	return fmt.Sprintf("%st%04d#x", namePrefix, i)
}

// block is the key block candidate i covers; candidates are dealt
// round-robin so every block's candidates spread over the catalog.
func (c *corpus) block(i int) int { return i % c.blocks }

func (c *corpus) blockKeys(b int) []string { return c.keys[b*blockKeys : (b+1)*blockKeys] }

// informative reports whether candidate i carries signal at all; the
// rest are pure noise.
func (c *corpus) informative(i int) bool {
	j := i / c.blocks
	if c.sparse {
		return j%4 == 0
	}
	return j%64 <= 1
}

// values fills dst with candidate i's feature over its block's keys.
// The dense model is `misketch bench`'s: a planted cohort at graded
// noise scales (j%64 == 0), marginal stragglers (j%64 == 1) and an
// independent bulk. The sparse model's informative third is weak
// (noise scale 3 and up), so even its top MI stays below the cascade
// margin.
func (c *corpus) values(i int, dst []float64) {
	rng := rngFor(c.seed, streamCand, i)
	base := c.block(i) * blockKeys
	j := i / c.blocks
	for g := range dst {
		n := rng.NormFloat64()
		switch {
		case c.sparse && j%4 == 0:
			dst[g] = signal(base+g) + (3+0.25*float64(j/4))*n
		case !c.sparse && j%64 == 0:
			dst[g] = signal(base+g) + (0.08+0.035*float64(j/64))*n
		case !c.sparse && j%64 == 1:
			dst[g] = signal(base+g) + (1.0+float64(j/64))*n
		default:
			dst[g] = n
		}
	}
}

// candidate builds candidate i's sketch the way an ingest job would.
func (c *corpus) candidate(i int, vals []float64) (*misketch.Sketch, error) {
	c.values(i, vals)
	b, err := misketch.NewStreamBuilder(misketch.RoleCandidate, true, misketch.Options{Size: sketchSize})
	if err != nil {
		return nil, err
	}
	for g, k := range c.blockKeys(c.block(i)) {
		b.AddNum(k, vals[g])
	}
	return b.Sketch(), nil
}

// trainSketch is train t: 4000 rows over one block's keys (block 0 on
// a dense catalog), target = signal + small noise, serialized.
func (c *corpus) trainSketch(t int) ([]byte, error) {
	rng := rngFor(c.seed, streamTrain, t)
	b := 0
	if c.blocks > 1 {
		b = rng.IntN(c.blocks)
	}
	tb, err := misketch.NewStreamBuilder(misketch.RoleTrain, true, misketch.Options{Size: sketchSize})
	if err != nil {
		return nil, err
	}
	keys := c.blockKeys(b)
	for r := 0; r < trainRows; r++ {
		g := rng.IntN(blockKeys)
		tb.AddNum(keys[g], signal(b*blockKeys+g)+0.25*rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := misketch.WriteSketch(&buf, tb.Sketch()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rankBody is the /v1/rank request for a serialized train.
func rankBody(raw []byte) []byte {
	minJ := minJoin
	body, _ := json.Marshal(misketch.RankRequest{
		Sketch: base64.StdEncoding.EncodeToString(raw), Prefix: namePrefix, MinJoin: &minJ, Top: topK,
	})
	return body
}

// pool lists the noise candidates writes overwrite.
func (c *corpus) pool() []int {
	var out []int
	for i := 0; len(out) < writePool; i++ {
		if !c.informative(i) {
			out = append(out, i)
		}
	}
	return out
}

// writeOp is one candidate overwrite: a CSV uploaded to /v1/sketch,
// then stored under name with /v1/put.
type writeOp struct {
	name string
	csv  []byte
}

// writeCSV renders a CSV table of candidate i's keys. version 0 is
// pure noise (a fresh draw per version); promote plants the exact
// signal, so the candidate tops every ranking of its block.
func (c *corpus) writeCSV(i, version int, promote bool) []byte {
	rng := rngFor(c.seed, streamWrite, i*writeVersions+version)
	base := c.block(i) * blockKeys
	var buf bytes.Buffer
	buf.WriteString("key,v\n")
	for g, k := range c.blockKeys(c.block(i)) {
		v := rng.NormFloat64()
		if promote {
			v = signal(base+g) + 0.01*v
		}
		buf.WriteString(k)
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// writes returns the write schedule: every pooled name cycles through
// writeVersions noise versions.
func (c *corpus) writes() []writeOp {
	var ops []writeOp
	for v := 0; v < writeVersions; v++ {
		for _, i := range c.pool() {
			ops = append(ops, writeOp{name: c.name(i), csv: c.writeCSV(i, v, false)})
		}
	}
	return ops
}

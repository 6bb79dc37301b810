package mi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The cheap tier is a pruning score, so its contract is narrower than an
// estimator's: it must agree with the reference discretize-then-MLE
// pipeline on numeric pairs, be deterministic to the last bit, never
// exceed its own Ceil, and survive the degenerate inputs (NaN, constant,
// empty, huge categorical cross products) a real catalog throws at it.

const cheapTol = 1e-9

// TestCheapMIMatchesBinnedMLE pins the numeric path to the reference
// pipeline: equal-width binning into the same cells, plug-in MI on the
// counts. Only summation order differs, so agreement must be near
// float-exact across distributions and bin counts.
func TestCheapMIMatchesBinnedMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := map[string]func(n int) ([]float64, []float64){
		"independent": func(n int) ([]float64, []float64) {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			return xs, ys
		},
		"linear": func(n int) ([]float64, []float64) {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
				ys[i] = 2*xs[i] + 0.3*rng.NormFloat64()
			}
			return xs, ys
		},
		"ties": func(n int) ([]float64, []float64) {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(5))
				ys[i] = xs[i] + float64(rng.Intn(3))
			}
			return xs, ys
		},
	}
	for name, gen := range gens {
		for _, bins := range []int{4, DefaultCheapBins, 64} {
			t.Run(fmt.Sprintf("%s/bins%d", name, bins), func(t *testing.T) {
				xs, ys := gen(300)
				var s Scratch
				got := s.CheapMI(NumericColumn(xs), NumericColumn(ys), bins)
				want := BinnedMLE(xs, ys, bins, BinEqualWidth)
				if math.Abs(got.MI-want) > cheapTol {
					t.Fatalf("CheapMI = %v, BinnedMLE = %v (diff %g)", got.MI, want, got.MI-want)
				}
				if got.MI < -cheapTol {
					t.Fatalf("plug-in MI must be non-negative, got %v", got.MI)
				}
				if got.MI > got.Ceil+cheapTol {
					t.Fatalf("MI %v exceeds Ceil %v", got.MI, got.Ceil)
				}
			})
		}
	}
}

// TestCheapMICategorical pins the interning path to the reference MLE on
// the same strings, and checks a functional pair saturates its Ceil.
func TestCheapMICategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 400
	xs, ys := make([]string, n), make([]string, n)
	for i := range xs {
		xs[i] = fmt.Sprintf("c%d", rng.Intn(12))
		ys[i] = fmt.Sprintf("d%d", rng.Intn(7))
	}
	var s Scratch
	got := s.CheapMI(CategoricalColumn(xs), CategoricalColumn(ys), DefaultCheapBins)
	want := MLE(xs, ys)
	if math.Abs(got.MI-want) > cheapTol {
		t.Fatalf("categorical CheapMI = %v, MLE = %v", got.MI, want)
	}

	// y a function of x: MI = H(Y) = Ceil exactly (up to rounding).
	for i := range ys {
		ys[i] = xs[i] + "!"
	}
	got = s.CheapMI(CategoricalColumn(xs), CategoricalColumn(ys), DefaultCheapBins)
	if math.Abs(got.MI-got.Ceil) > cheapTol {
		t.Fatalf("functional pair: MI %v should saturate Ceil %v", got.MI, got.Ceil)
	}
}

// TestCheapMIMixed exercises a categorical–numeric pair against the
// reference pipeline (discretize the numeric side, MLE on labels).
func TestCheapMIMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 350
	xs := make([]string, n)
	ys := make([]float64, n)
	for i := range xs {
		g := rng.Intn(6)
		xs[i] = fmt.Sprintf("g%d", g)
		ys[i] = float64(g) + 0.5*rng.NormFloat64()
	}
	var s Scratch
	got := s.CheapMI(CategoricalColumn(xs), NumericColumn(ys), DefaultCheapBins)
	want := MLE(xs, Discretize(ys, DefaultCheapBins, BinEqualWidth))
	if math.Abs(got.MI-want) > cheapTol {
		t.Fatalf("mixed CheapMI = %v, reference = %v", got.MI, want)
	}
	if got.MI < 0.5 {
		t.Fatalf("strongly dependent mixed pair scored %v, want well above 0", got.MI)
	}
}

// TestCheapMIDeterministic runs the same pair through fresh and reused
// scratches; every result must be bit-identical.
func TestCheapMIDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 257
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i]*xs[i] + rng.NormFloat64()
	}
	var fresh Scratch
	want := fresh.CheapMI(NumericColumn(xs), NumericColumn(ys), DefaultCheapBins)
	var reused Scratch
	// Dirty the reused scratch with an unrelated pair first.
	reused.CheapMI(NumericColumn(ys), NumericColumn(xs), 7)
	for i := 0; i < 3; i++ {
		got := reused.CheapMI(NumericColumn(xs), NumericColumn(ys), DefaultCheapBins)
		if got != want {
			t.Fatalf("run %d: %+v != %+v (must be bit-identical)", i, got, want)
		}
	}
}

// TestCheapMIDegenerate covers the inputs that must not panic and must
// stay deterministic: NaNs, constant columns, empty columns.
func TestCheapMIDegenerate(t *testing.T) {
	var s Scratch
	if got := s.CheapMI(NumericColumn(nil), NumericColumn(nil), 8); got != (CheapResult{}) {
		t.Fatalf("empty columns: got %+v, want zero", got)
	}

	// Constant column: one bin, zero entropy, zero MI and Ceil.
	xs := []float64{3, 3, 3, 3}
	ys := []float64{1, 2, 3, 4}
	got := s.CheapMI(NumericColumn(xs), NumericColumn(ys), 8)
	if got.MI != 0 || got.Ceil != 0 {
		t.Fatalf("constant column: got %+v, want MI=0 Ceil=0", got)
	}

	// NaNs land in bin 0 deterministically; the pair still scores.
	nan := math.NaN()
	xs = []float64{nan, 1, 2, nan, 3, 4, 5, 6}
	ys = []float64{0, 1, 2, 0, 3, 4, 5, 6}
	a := s.CheapMI(NumericColumn(xs), NumericColumn(ys), 4)
	b := s.CheapMI(NumericColumn(xs), NumericColumn(ys), 4)
	if a != b {
		t.Fatalf("NaN pair not deterministic: %+v vs %+v", a, b)
	}
	if math.IsNaN(a.MI) || math.IsNaN(a.Ceil) {
		t.Fatalf("NaN leaked into the score: %+v", a)
	}

	// An all-NaN column collapses to a single bin like a constant.
	xs = []float64{nan, nan, nan}
	got = s.CheapMI(NumericColumn(xs), NumericColumn(ys[:3]), 4)
	if got.MI != 0 || got.Ceil != 0 {
		t.Fatalf("all-NaN column: got %+v, want MI=0 Ceil=0", got)
	}
}

// TestCheapMIMapFallback forces the joint table over cheapMaxFlatCells
// (two high-cardinality categorical sides) and pins the overflow path to
// the reference MLE.
func TestCheapMIMapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const card = 600 // 600×600 cells > 1<<18: must take the map path
	n := 3000
	xs, ys := make([]string, n), make([]string, n)
	for i := 0; i < card; i++ {
		// Guarantee full cardinality on both sides.
		xs[i] = fmt.Sprintf("x%d", i)
		ys[i] = fmt.Sprintf("y%d", i)
	}
	for i := card; i < n; i++ {
		xs[i] = fmt.Sprintf("x%d", rng.Intn(card))
		ys[i] = fmt.Sprintf("y%d", rng.Intn(card))
	}
	var s Scratch
	got := s.CheapMI(CategoricalColumn(xs), CategoricalColumn(ys), DefaultCheapBins)
	want := MLE(xs, ys)
	if math.Abs(got.MI-want) > cheapTol {
		t.Fatalf("map-fallback CheapMI = %v, MLE = %v", got.MI, want)
	}
}

// TestCheapMIPreservesExactEstimate verifies the coexistence contract the
// cascade relies on: a cheap pass between two exact estimates on the same
// scratch must not change the exact result.
func TestCheapMIPreservesExactEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 200
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + 0.5*rng.NormFloat64()
	}
	var s Scratch
	before := s.Estimate(NumericColumn(ys), NumericColumn(xs), DefaultK)
	s.CheapMI(NumericColumn(ys), NumericColumn(xs), DefaultCheapBins)
	after := s.Estimate(NumericColumn(ys), NumericColumn(xs), DefaultK)
	if before != after {
		t.Fatalf("cheap pass disturbed the exact estimator: %+v vs %+v", before, after)
	}
}

// cheapMIInline is the cheap tier with the entropy terms computed
// inline, p·ln p per count, exactly as before the per-call memo: the
// reference TestCheapMIMemoBitIdentical holds CheapMI to.
func cheapMIInline(x, y Column, bins int) CheapResult {
	n := x.Len()
	if n == 0 {
		return CheapResult{}
	}
	var levels map[string]int32
	xIDs, cardX := cheapIDs(x, bins, nil, &levels)
	levels = nil
	yIDs, cardY := cheapIDs(y, bins, nil, &levels)
	fn := float64(n)
	entropy := func(counts []int) float64 {
		h := 0.0
		for _, c := range counts {
			if c == 0 {
				continue
			}
			p := float64(c) / fn
			h -= p * math.Log(p)
		}
		return h
	}
	cx, cy := make([]int, cardX), make([]int, cardY)
	// Joint cells in first-appearance order: the order both the flat
	// table's touched list and the overflow map's count slice sum in.
	cell := map[int64]int{}
	var cxy []int
	for i := 0; i < n; i++ {
		cx[xIDs[i]]++
		cy[yIDs[i]]++
		k := int64(xIDs[i])*int64(cardY) + int64(yIDs[i])
		j, ok := cell[k]
		if !ok {
			j = len(cxy)
			cell[k] = j
			cxy = append(cxy, 0)
		}
		cxy[j]++
	}
	hx, hy := entropy(cx), entropy(cy)
	return CheapResult{MI: hx + hy - entropy(cxy), Ceil: math.Min(hx, hy)}
}

// TestCheapMIMemoBitIdentical pins the memoized entropy terms to the
// inline formula bit for bit, across the column shapes a catalog
// produces and with one scratch reused across varying sample sizes (a
// stale memo from a previous call must never leak into the next).
func TestCheapMIMemoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	nan := math.NaN()
	num := func(n int, f func(i int) float64) Column {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return NumericColumn(v)
	}
	cat := func(n, card int) Column {
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprintf("v%d", rng.Intn(card))
		}
		return CategoricalColumn(v)
	}
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		cases := map[string][2]Column{
			"random":   {num(n, func(int) float64 { return rng.NormFloat64() }), num(n, func(int) float64 { return rng.NormFloat64() })},
			"tied":     {num(n, func(int) float64 { return float64(rng.Intn(4)) }), num(n, func(int) float64 { return float64(rng.Intn(3)) })},
			"constant": {num(n, func(int) float64 { return 7 }), num(n, func(int) float64 { return rng.Float64() })},
			"nan": {num(n, func(int) float64 {
				if rng.Intn(5) == 0 {
					return nan
				}
				return rng.NormFloat64()
			}), num(n, func(int) float64 { return rng.ExpFloat64() })},
			"categorical": {cat(n, 1+rng.Intn(30)), cat(n, 1+rng.Intn(10))},
			"mixed":       {cat(n, 1+rng.Intn(12)), num(n, func(int) float64 { return rng.NormFloat64() })},
			"overflow":    {cat(n, 1000), cat(n, 1000)},
		}
		for name, c := range cases {
			for _, bins := range []int{4, DefaultCheapBins, 64} {
				got := s.CheapMI(c[0], c[1], bins)
				want := cheapMIInline(c[0], c[1], bins)
				if math.Float64bits(got.MI) != math.Float64bits(want.MI) || math.Float64bits(got.Ceil) != math.Float64bits(want.Ceil) {
					t.Fatalf("trial %d %s n=%d bins=%d: CheapMI %+v, inline %+v (must be bit-identical)", trial, name, n, bins, got, want)
				}
			}
		}
	}
}

// TestCheapMIJoinTrainReuse: with x the scratch's train-side join
// buffer, CheapMI keeps x's IDs and entropy while JoinGen and the bin
// count hold, and recomputes them when either changes — scores stay
// bit-identical to the inline formula throughout. A column that merely
// equals the buffer is never treated as it.
func TestCheapMIJoinTrainReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 300
	var s Scratch
	for step := 0; step < 200; step++ {
		numeric := step%40 < 20
		if step%5 == 0 {
			// A full join rewrites the train side in place.
			s.JoinGen++
			s.JoinYNum, s.JoinYStr = s.JoinYNum[:0], s.JoinYStr[:0]
			for i := 0; i < n; i++ {
				s.JoinYNum = append(s.JoinYNum, float64(rng.Intn(9))+rng.Float64())
				s.JoinYStr = append(s.JoinYStr, fmt.Sprintf("y%d", rng.Intn(7)))
			}
		}
		x := CategoricalColumn(s.JoinYStr)
		if numeric {
			x = NumericColumn(s.JoinYNum)
		}
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.NormFloat64()
		}
		y := NumericColumn(ys)
		bins := DefaultCheapBins
		if step%7 == 0 {
			bins = 6
		}
		got, want := s.CheapMI(x, y, bins), cheapMIInline(x, y, bins)
		if math.Float64bits(got.MI) != math.Float64bits(want.MI) || math.Float64bits(got.Ceil) != math.Float64bits(want.Ceil) {
			t.Fatalf("step %d: CheapMI %+v, inline %+v", step, got, want)
		}
		if s.cheapXGen != s.JoinGen {
			t.Fatalf("step %d: train side not kept for reuse", step)
		}
		copied := NumericColumn(append([]float64(nil), s.JoinYNum...))
		got, want = s.CheapMI(copied, y, bins), cheapMIInline(copied, y, bins)
		if math.Float64bits(got.MI) != math.Float64bits(want.MI) || s.cheapXGen != 0 {
			t.Fatalf("step %d: a copy of the train side was treated as the join buffer", step)
		}
	}
}

func BenchmarkCheapMI(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := 256
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + rng.NormFloat64()
	}
	x, y := NumericColumn(xs), NumericColumn(ys)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CheapMI(x, y, DefaultCheapBins)
	}
}

package mi

import "math"

// This file implements the cascade's cheap tier: a single-pass, interned,
// equal-width-binned plug-in (MLE) estimate. It is the Section II
// discretize-then-MLE estimator
// (binned.go) rebuilt for the ranking hot path — values are binned to
// dense integer IDs instead of string labels, counts live in flat
// reusable arrays instead of maps, and the joint table is cleared through
// a touched-cell list so the steady-state cost is O(n) with zero heap
// allocations. The paper's criticism of binned MLE (information loss,
// bin-count-dependent bias) is exactly why it is only a *tier*: its score
// orders candidates cheaply, and every candidate whose cheap score could
// still contend is re-scored by the exact KSG-family estimator.

// DefaultCheapBins is the equal-width bin count the cheap tier uses for
// numeric columns, chosen by the margin calibration experiment
// (exp.RunCascadeCalib) for *discrimination*, not accuracy: what makes a
// pair prunable is its cheap score plus the safety margin staying below
// the K-th exact MI, so the operative quantity is how far independent
// pairs score above zero (sparse-table overdispersion — at sketch-scale
// joins a 64-bin joint table is mostly singleton cells and independent
// pairs score well over a nat, at 128 bins nothing prunes at all) plus
// the margin the bin count needs (underestimation of strong dependence,
// which grows as bins shrink but is capped by the saturation guard).
// 16 bins minimize that sum: independent sketch-scale pairs score
// ≈ 0.4–0.9 nats and the calibrated violation-free margin is 1.25, so
// any pair more than ≈ 2 nats below the current K-th is settled cheaply.
const DefaultCheapBins = 16

// CheapResult is the cheap tier's output for one candidate pair.
type CheapResult struct {
	// MI is the raw binned plug-in estimate in nats. Deliberately
	// uncorrected: the plug-in estimator's upward bias (paper Eq. 6,
	// ≈ (m_XY − m_X − m_Y + 1)/(2N)) partially offsets the information
	// binning destroys, which is exactly the direction a pruning score
	// wants to err — overestimation only costs an unnecessary exact run,
	// underestimation is what the cascade margin must cover. Calibration
	// (exp.RunCascadeCalib) measured Miller–Madow-corrected scores
	// underestimating KSG-family results by ~1 nat on the synthetic
	// dependence families; the raw score keeps the residual within the
	// default margin instead.
	MI float64
	// Ceil is the smaller of the two binned marginal entropies — the
	// largest MI the binned view could possibly express for this pair.
	// A score close to its Ceil means the binning itself is saturated
	// and may be hiding arbitrarily more dependence (a near-functional
	// continuous relationship collapses into few cells), so callers must
	// treat such pairs as unprunable rather than trust the score.
	Ceil float64
}

// CheapMI computes the cheap-tier score for a joined pair: both columns
// are reduced to dense integer IDs (numeric values by equal-width binning
// into bins cells, exactly as Discretize/BinEqualWidth places them;
// categorical values by interning), and the plug-in MI is computed from
// flat count arrays. Results are deterministic to the last bit; the
// scratch's join buffers and exact-estimator state are untouched, so a
// cheap pass between a scratch join and EstimateHinted is safe.
//
// When x is the scratch's train-side join buffer (JoinYNum/JoinYStr),
// its IDs, cardinality and entropy are kept and reused by later calls
// at the same JoinGen and bin count: a candidate whose join reused the
// previous one's key structure pays for its own side only.
func (s *Scratch) CheapMI(x, y Column, bins int) CheapResult {
	if x.Len() != y.Len() {
		panic("mi: CheapMI requires equal-length columns")
	}
	if bins <= 0 {
		panic("mi: bins must be positive")
	}
	n := x.Len()
	if n == 0 {
		return CheapResult{}
	}
	s.cheapTerms.reset(n)
	train := s.isJoinTrain(x)
	if !train || s.cheapXGen == 0 || s.cheapXGen != s.JoinGen || s.cheapXBins != bins {
		s.cheapXIDs, s.cheapCardX = cheapIDs(x, bins, s.cheapXIDs, &s.cheapXLevels)
		s.cheapHX = cheapMarginal(&s.cheapXCounts, s.cheapXIDs, s.cheapCardX, &s.cheapTerms)
		s.cheapXGen, s.cheapXBins = 0, bins
		if train {
			s.cheapXGen = s.JoinGen
		}
	}
	cardX, hx := s.cheapCardX, s.cheapHX
	var cardY int32
	s.cheapYIDs, cardY = cheapIDs(y, bins, s.cheapYIDs, &s.cheapYLevels)
	hy := cheapMarginal(&s.cheapYCounts, s.cheapYIDs, cardY, &s.cheapTerms)

	var hxy float64
	if cells := int64(cardX) * int64(cardY); cells <= cheapMaxFlatCells {
		hxy = s.cheapJointFlat(int32(cells), cardY, n)
	} else {
		// Two high-cardinality categorical columns can overflow any flat
		// layout; fall back to the joint-cell map (the same one MLE owns
		// and re-clears at its own start).
		hxy = s.cheapJointMap(n)
	}

	return CheapResult{MI: hx + hy - hxy, Ceil: math.Min(hx, hy)}
}

// isJoinTrain reports whether c is the train-side join buffer itself.
func (s *Scratch) isJoinTrain(c Column) bool {
	if c.IsNumeric() {
		return len(c.Num) > 0 && len(c.Num) == len(s.JoinYNum) && &c.Num[0] == &s.JoinYNum[0]
	}
	return len(c.Str) > 0 && len(c.Str) == len(s.JoinYStr) && &c.Str[0] == &s.JoinYStr[0]
}

// cheapMaxFlatCells bounds the flat joint table (1 MiB of int32 cells).
// Every pair with a binned numeric side sits far below it (≤ bins·n
// cells); only categorical–categorical pairs with tens of thousands of
// distinct values on both sides overflow into the map path.
const cheapMaxFlatCells = 1 << 18

// cheapIDs reduces a column to dense int IDs in [0, card): numeric
// values by equal-width binning over the observed range (constant,
// empty, all-NaN, or overflow-wide ranges collapse to a single bin, and
// NaNs land in bin 0), categorical values by first-appearance interning.
func cheapIDs(c Column, bins int, ids []int32, levels *map[string]int32) ([]int32, int32) {
	n := c.Len()
	if cap(ids) < n {
		ids = make([]int32, n)
	} else {
		ids = ids[:n]
	}
	if !c.IsNumeric() {
		if *levels == nil {
			*levels = make(map[string]int32, 64)
		} else {
			clear(*levels)
		}
		lv := *levels
		var card int32
		for i, v := range c.Str {
			id, ok := lv[v]
			if !ok {
				id = card
				lv[v] = id
				card++
			}
			ids[i] = id
		}
		return ids, card
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.Num {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := (hi - lo) / float64(bins)
	if !(width > 0) || math.IsInf(width, 0) {
		clear(ids)
		return ids, 1
	}
	for i, v := range c.Num {
		b := 0
		// NaN fails the comparison and stays in bin 0 deterministically.
		if f := (v - lo) / width; f > 0 {
			b = int(f)
			if b >= bins {
				b = bins - 1
			}
		}
		ids[i] = int32(b)
	}
	return ids, int32(bins)
}

// entropyTerms memoizes the entropy term p·ln p, p = c/n, per count
// value c across CheapMI calls over the same n: the marginal and joint
// sums see the same small counts over and over, and math.Log dominates
// them. A memo entry holds exactly the product the inline formula
// computes (the explicit conversion rounds it, so it can never fuse
// into the caller's subtraction), keeping every sum bit-identical. Zero
// marks an empty entry: the only zero term is c = n, which is cheap to
// recompute.
type entropyTerms struct {
	fn float64
	t  []float64
}

// reset prepares the memo for a call over n samples, keeping the terms
// of the previous call when n is unchanged.
func (m *entropyTerms) reset(n int) {
	if m.fn == float64(n) && len(m.t) == n+1 {
		return
	}
	m.fn = float64(n)
	if cap(m.t) <= n {
		m.t = make([]float64, n+1)
	} else {
		m.t = m.t[:n+1]
		clear(m.t)
	}
}

// term returns p·ln p for p = c/n, 1 <= c <= n.
func (m *entropyTerms) term(c int32) float64 {
	t := m.t[c]
	if t == 0 {
		p := float64(c) / m.fn
		t = float64(p * math.Log(p))
		m.t[c] = t
	}
	return t
}

// cheapMarginal counts one ID column into the reusable flat array and
// returns its empirical entropy. The entropy sum runs over the count
// array in index order, never over map iteration, so it is
// deterministic.
func cheapMarginal(counts *[]int32, ids []int32, card int32, terms *entropyTerms) float64 {
	cs := *counts
	if cap(cs) < int(card) {
		cs = make([]int32, card)
	} else {
		cs = cs[:card]
		clear(cs)
	}
	for _, id := range ids {
		cs[id]++
	}
	h := 0.0
	for _, c := range cs {
		if c == 0 {
			continue
		}
		h -= terms.term(c)
	}
	*counts = cs
	return h
}

// cheapJointFlat counts joint cells into the flat table (kept all-zero
// between calls: only the cells this pass touched are re-zeroed, so the
// cost is O(n) regardless of table size) and returns the joint entropy.
func (s *Scratch) cheapJointFlat(cells, stride int32, n int) float64 {
	if cap(s.cheapJoint) < int(cells) {
		s.cheapJoint = make([]int32, cells)
	} else {
		s.cheapJoint = s.cheapJoint[:cells]
	}
	touched := s.cheapTouched[:0]
	for i := 0; i < n; i++ {
		c := s.cheapXIDs[i]*stride + s.cheapYIDs[i]
		if s.cheapJoint[c] == 0 {
			touched = append(touched, c)
		}
		s.cheapJoint[c]++
	}
	h := 0.0
	for _, c := range touched {
		h -= s.cheapTerms.term(s.cheapJoint[c])
		s.cheapJoint[c] = 0
	}
	s.cheapTouched = touched
	return h
}

// cheapJointMap is the overflow path for pairs whose ID cross product
// exceeds the flat table: joint cells go through the packed-key map the
// plug-in estimator owns (MLE clears it at its own start, so sharing is
// safe). Entropy is summed over the count slice in first-appearance
// order, deterministically.
func (s *Scratch) cheapJointMap(n int) float64 {
	if s.jLevels == nil {
		s.jLevels = make(map[uint64]int, 64)
	} else {
		clear(s.jLevels)
	}
	s.jCounts = s.jCounts[:0]
	for i := 0; i < n; i++ {
		key := uint64(uint32(s.cheapXIDs[i]))<<32 | uint64(uint32(s.cheapYIDs[i]))
		ji, ok := s.jLevels[key]
		if !ok {
			ji = len(s.jCounts)
			s.jLevels[key] = ji
			s.jCounts = append(s.jCounts, 0)
		}
		s.jCounts[ji]++
	}
	h := 0.0
	for _, c := range s.jCounts {
		h -= s.cheapTerms.term(int32(c))
	}
	return h
}

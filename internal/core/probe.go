package core

import (
	"fmt"
	"slices"
	"sync"

	"misketch/internal/mi"
)

// TrainProbe is a discovery query compiled against its train sketch: the
// train side of every candidate join is invariant across the query, so
// the hash→entry index, the partition into numeric/categorical value
// views, and the ascending value order are built once here and probed by
// every candidate without further allocation. A TrainProbe is immutable
// after compilation and safe to share across concurrent rankers (each
// ranker brings its own Scratch).
type TrainProbe struct {
	train *Sketch
	// Open-addressing hash table from key hash to the packed range
	// [(val>>32)−1, uint32(val)) into order; a zero val marks an empty
	// slot (the +1 start bias keeps real entries nonzero). Linear
	// probing over a half-loaded power-of-two table resolves a lookup in
	// ~1–2 slot inspections — the single hottest map in a ranking query,
	// probed once per candidate entry.
	htabKey []uint32
	htabVal []uint64
	mask    uint32
	order   []int32 // train entry indices grouped by key hash
	// valOrder is the ascending (value, entry) order of a numeric train
	// sketch (nil for categorical), from which each candidate's joined
	// x-ordering is derived by an O(entries) filter instead of a sort.
	valOrder []int32
	// distinct/distMult expose the train's distinct key hashes and their
	// entry multiplicities (parallel slices) — the exact quantities an
	// inverted key index needs to compute KeyOverlap without touching
	// candidate sketches.
	distinct []uint32
	distMult []int32
}

// CompileTrainProbe builds the per-query index over a train sketch.
func CompileTrainProbe(train *Sketch) *TrainProbe {
	n := train.Len()
	counts := make(map[uint32]uint32, n)
	for _, hk := range train.KeyHashes {
		counts[hk]++
	}
	size := 4
	for size < 2*len(counts) {
		size <<= 1
	}
	p := &TrainProbe{
		train:    train,
		htabKey:  make([]uint32, size),
		htabVal:  make([]uint64, size),
		mask:     uint32(size - 1),
		order:    make([]int32, n),
		valOrder: train.NumValOrder(),
	}
	slotOf := func(hk uint32) uint32 {
		i := hk & p.mask
		for p.htabVal[i] != 0 && p.htabKey[i] != hk {
			i = (i + 1) & p.mask
		}
		return i
	}
	p.distinct = make([]uint32, 0, len(counts))
	p.distMult = make([]int32, 0, len(counts))
	var off uint32
	for hk, c := range counts {
		i := slotOf(hk)
		p.htabKey[i] = hk
		p.htabVal[i] = uint64(off+1)<<32 | uint64(off)
		off += c
		p.distinct = append(p.distinct, hk)
		p.distMult = append(p.distMult, int32(c))
	}
	for i, hk := range train.KeyHashes {
		s := slotOf(hk)
		v := p.htabVal[s]
		end := uint32(v)
		p.order[end] = int32(i)
		p.htabVal[s] = v&^uint64(^uint32(0)) | uint64(end+1)
	}
	return p
}

// Train returns the sketch the probe was compiled from.
func (p *TrainProbe) Train() *Sketch { return p.train }

// DistinctKeyHashes returns the train sketch's distinct key hashes and,
// parallel to them, how many train entries carry each hash. Summing
// multiplicity × (candidate multiplicity) over the hashes a candidate
// shares reproduces KeyOverlap exactly — the contract inverted key
// indexes rely on to select candidates without decoding them. The
// slices are owned by the probe and must not be modified; their order
// is unspecified.
func (p *TrainProbe) DistinctKeyHashes() (hashes []uint32, multiplicities []int32) {
	return p.distinct, p.distMult
}

// Scratch owns the reusable per-worker state of the ranking hot path:
// the estimator scratch (with the joined-pair buffers) plus the join
// match list and the marker arrays the ordering hints are derived from.
// The zero value is ready to use; a Scratch must not be shared between
// concurrent rankers.
type Scratch struct {
	// MI is the estimator scratch, including the joined-pair buffers the
	// scratch join fills.
	MI mi.Scratch

	candOf       []int32 // per train entry: matched cand entry + 1, or 0
	matchedTrain []int32 // per train entry: joined index + 1, or 0
	// A candidate entry can join several train entries (repeated train
	// keys), so the joined indices per candidate entry form chains:
	// candFirst heads them and nextJoined links them (both offset by 1).
	candFirst  []int32
	nextJoined []int32
	joinedCand []int32 // per joined index: the candidate entry it pairs with
	xOrder     []int32 // joined x ordering hint (train value order filtered)
	xOrderGen  uint64  // MI.JoinGen xOrder was derived at (0 = none)
	yOrder     []int32 // joined y ordering hint (cand value order filtered)

	// The join memo: the key structure of the last successful full join.
	// Coordinated sketches over one key domain hold the same key sample
	// (every candidate keeps the keys with the smallest hashes), so a
	// query's candidates very often carry byte-equal KeyHashes. For such
	// a candidate every array above, the train-side join column, and the
	// key overlap are what the memoized join left behind; only the
	// candidate's values need gathering. memoProbe is nil when the memo
	// is empty. memoKeys is an owned copy: a candidate view's KeyHashes
	// borrow segment bytes that may be unmapped once its query ends.
	memoProbe   *TrainProbe
	memoNumeric bool
	memoKeys    []uint32
	memoSize    int
}

// dropJoinMemo empties the join memo.
func (s *Scratch) dropJoinMemo() {
	s.memoProbe = nil
	s.memoKeys = s.memoKeys[:0]
}

// sameKeys reports whether the memoized join was of probe p against a
// candidate with cand's key sample.
func (s *Scratch) sameKeys(p *TrainProbe, cand *Sketch) bool {
	return s.memoProbe == p && slices.Equal(s.memoKeys, cand.KeyHashes)
}

// ScratchPool recycles Scratch values across ranking queries. A
// long-running service serves many queries whose workers each need a
// Scratch; drawing them from a pool keeps the grown-to-size join
// buffers, neighbor structures, and interning maps hot across requests
// instead of reallocating them per query. The zero value is ready to
// use; a ScratchPool is safe for concurrent use.
type ScratchPool struct {
	p sync.Pool
}

// Get returns a Scratch ready for use, recycled when one is available.
func (sp *ScratchPool) Get() *Scratch {
	if v := sp.p.Get(); v != nil {
		return v.(*Scratch)
	}
	return new(Scratch)
}

// Put returns a Scratch to the pool, dropping its join memo so that no
// probe or key sample outlives the query that used it. The caller must
// not use s after Put.
func (sp *ScratchPool) Put(s *Scratch) {
	if s != nil {
		s.dropJoinMemo()
		sp.p.Put(s)
	}
}

// JoinScratch matches every train-sketch entry against the candidate
// sketch and returns the paired values, exactly like Join, but probing
// the compiled train index with zero steady-state allocations: the
// sample is written into the scratch's joined-pair buffers, which stay
// valid until the next JoinScratch call on the same scratch. Both
// sketches must share a hash seed. Unlike Join, duplicate candidate key
// hashes are reported only when they actually join a train entry;
// duplicates that match nothing cannot affect the sample.
//
// When the latest successful join on s was of this probe against a
// candidate with the same Numeric flag and byte-equal KeyHashes, the
// join is a gather of cand's values through the memoized
// joined→candidate-entry map: the train side, the match arrays and the
// join generation (s.MI.JoinGen) are left as they are.
func (p *TrainProbe) JoinScratch(cand *Sketch, s *Scratch) (JoinedSample, error) {
	train := p.train
	if train.Seed != cand.Seed {
		return JoinedSample{}, fmt.Errorf("core: sketches built with different seeds (%#x vs %#x)", train.Seed, cand.Seed)
	}
	if s.memoNumeric == cand.Numeric && s.sameKeys(p, cand) {
		if cand.Numeric {
			xNum := s.MI.JoinXNum[:0]
			for _, j := range s.joinedCand {
				xNum = append(xNum, cand.Nums[j])
			}
			s.MI.JoinXNum = xNum
		} else {
			xStr := s.MI.JoinXStr[:0]
			for _, j := range s.joinedCand {
				xStr = append(xStr, cand.Strs[j])
			}
			s.MI.JoinXStr = xStr
		}
		js := s.joinedSample(train.Numeric, cand.Numeric, s.memoSize)
		js.Reused = true
		return js, nil
	}
	s.dropJoinMemo()
	s.MI.JoinGen++
	if cap(s.candOf) < train.Len() {
		s.candOf = make([]int32, train.Len())
	} else {
		s.candOf = s.candOf[:train.Len()]
		clear(s.candOf)
	}
	candOf := s.candOf
	// Scatter matches by train entry: candidate key hashes are unique,
	// so each train entry matches at most one candidate entry, and a
	// second hit on the same slot means a duplicated candidate hash —
	// exactly the condition Join rejects. Emitting by ascending train
	// entry below then recovers the train-entry order Join emits (the
	// estimate is bit-identical to the legacy path) without
	// materializing and sorting a match list.
	matches := 0
	mask := p.mask
	for j, hk := range cand.KeyHashes {
		i := hk & mask
		for {
			v := p.htabVal[i]
			if v == 0 {
				break
			}
			if p.htabKey[i] == hk {
				for _, ti := range p.order[uint32(v>>32)-1 : uint32(v)] {
					if candOf[ti] != 0 {
						return JoinedSample{}, fmt.Errorf("core: candidate sketch has duplicate key hash %#x", train.KeyHashes[ti])
					}
					candOf[ti] = int32(j) + 1
					matches++
				}
				break
			}
			i = (i + 1) & mask
		}
	}

	if cap(s.matchedTrain) < train.Len() {
		s.matchedTrain = make([]int32, train.Len())
	} else {
		s.matchedTrain = s.matchedTrain[:train.Len()]
		clear(s.matchedTrain)
	}
	if cap(s.candFirst) < cand.Len() {
		s.candFirst = make([]int32, cand.Len())
	} else {
		s.candFirst = s.candFirst[:cand.Len()]
		clear(s.candFirst)
	}
	if cap(s.nextJoined) < matches {
		s.nextJoined = make([]int32, matches)
	} else {
		s.nextJoined = s.nextJoined[:matches]
	}
	if cap(s.joinedCand) < matches {
		s.joinedCand = make([]int32, matches)
	} else {
		s.joinedCand = s.joinedCand[:matches]
	}

	yNum, xNum := s.MI.JoinYNum[:0], s.MI.JoinXNum[:0]
	yStr, xStr := s.MI.JoinYStr[:0], s.MI.JoinXStr[:0]
	joined := 0
	for ti, cj := range candOf {
		if cj == 0 {
			continue
		}
		j := int(cj) - 1
		if train.Numeric {
			yNum = append(yNum, train.Nums[ti])
		} else {
			yStr = append(yStr, train.Strs[ti])
		}
		if cand.Numeric {
			xNum = append(xNum, cand.Nums[j])
		} else {
			xStr = append(xStr, cand.Strs[j])
		}
		s.matchedTrain[ti] = int32(joined) + 1
		s.nextJoined[joined] = s.candFirst[j]
		s.candFirst[j] = int32(joined) + 1
		s.joinedCand[joined] = int32(j)
		joined++
	}
	s.MI.JoinYNum, s.MI.JoinXNum = yNum, xNum
	s.MI.JoinYStr, s.MI.JoinXStr = yStr, xStr

	s.memoProbe, s.memoNumeric, s.memoSize = p, cand.Numeric, matches
	s.memoKeys = append(s.memoKeys, cand.KeyHashes...)
	return s.joinedSample(train.Numeric, cand.Numeric, matches), nil
}

// joinedSample wraps the scratch's joined-pair buffers as the sample of
// a join of the given value kinds and size.
func (s *Scratch) joinedSample(trainNumeric, candNumeric bool, size int) JoinedSample {
	js := JoinedSample{Size: size}
	if trainNumeric {
		if s.MI.JoinYNum == nil {
			s.MI.JoinYNum = []float64{}
		}
		js.Y = mi.NumericColumn(s.MI.JoinYNum)
	} else {
		if s.MI.JoinYStr == nil {
			s.MI.JoinYStr = []string{}
		}
		js.Y = mi.CategoricalColumn(s.MI.JoinYStr)
	}
	if candNumeric {
		if s.MI.JoinXNum == nil {
			s.MI.JoinXNum = []float64{}
		}
		js.X = mi.NumericColumn(s.MI.JoinXNum)
	} else {
		if s.MI.JoinXStr == nil {
			s.MI.JoinXStr = []string{}
		}
		js.X = mi.CategoricalColumn(s.MI.JoinXStr)
	}
	return js
}

// hints derives the estimator's ordering hints for the sample produced
// by the latest JoinScratch: the joined train side's ascending order
// (filtering the probe's compile-once value order down to matched
// entries) and the joined candidate side's (filtering the candidate's
// memoized value order). Both filters are O(entries) walks with no
// comparisons — the estimator never sorts on the ranking hot path.
func (p *TrainProbe) hints(cand *Sketch, s *Scratch) mi.Hints {
	var h mi.Hints
	if p.valOrder != nil {
		// The train side only changes with a full join: a reused join
		// keeps the order derived for it.
		if s.xOrderGen != s.MI.JoinGen {
			xOrder := s.xOrder[:0]
			for _, ti := range p.valOrder {
				if joined := s.matchedTrain[ti]; joined != 0 {
					xOrder = append(xOrder, joined-1)
				}
			}
			s.xOrder, s.xOrderGen = xOrder, s.MI.JoinGen
		}
		h.XOrder = s.xOrder
	}
	if candOrder := cand.NumValOrder(); candOrder != nil {
		yOrder := s.yOrder[:0]
		for _, j := range candOrder {
			for joined := s.candFirst[j]; joined != 0; joined = s.nextJoined[joined-1] {
				yOrder = append(yOrder, joined-1)
			}
		}
		s.yOrder = yOrder
		h.YOrder = yOrder
	}
	return h
}

// EstimateJoined applies the type-appropriate exact MI estimator to the
// sample the latest JoinScratch call on s produced for this probe and
// candidate. Splitting the join from the estimate lets a caller compute
// the join once and feed it to several consumers — the cascaded ranker
// scores the joined sample with the cheap binned tier first and only
// calls EstimateJoined on candidates that can still contend. The result
// is bit-identical to EstimateMIScratch on the same pair: the ordering
// hints are derived from the scratch's join state exactly as there, and
// neither the cheap tier nor this call disturbs that state.
func (p *TrainProbe) EstimateJoined(cand *Sketch, js JoinedSample, k int, s *Scratch) mi.Result {
	return s.MI.EstimateHinted(js.Y, js.X, k, p.hints(cand, s))
}

// EstimateMIScratch joins the candidate against the compiled train probe
// and applies the type-appropriate MI estimator on the worker's scratch
// state — the allocation-free core of a ranking query. The result is
// bit-identical to EstimateMI on the same sketches.
func EstimateMIScratch(p *TrainProbe, cand *Sketch, k int, s *Scratch) (mi.Result, error) {
	js, err := p.JoinScratch(cand, s)
	if err != nil {
		return mi.Result{}, err
	}
	return p.EstimateJoined(cand, js, k, s), nil
}

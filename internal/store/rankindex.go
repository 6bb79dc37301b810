package store

// Admission and index-driven candidate selection: the query-side half
// of the inverted key index (keyindex.go).
//
// Admission — which stored sketches a query may rank and which
// segments it must pin — depends on the manifest, the segment set and
// the query's (prefix, seed, keep-empty) key, never on the train. It is
// therefore computed once per manifest version into an immutable
// admission snapshot: the eligible Metas in name order, the skipped
// names, the pin set, and for every indexed segment an ordinal →
// eligible-position map. The Store caches the last snapshot in a single
// slot (Store.admit, guarded by Store.mu); every site that changes what
// a fresh walk would produce drops it:
//
//   - Put and Delete of a name under the snapshot's prefix (a mutation
//     outside the prefix cannot change it);
//   - open (a new handle starts empty) and RebuildManifest (a new
//     backend);
//   - compaction's manifest rewrite, which moves records to a new
//     segment and retires the sources without bumping Gen;
//   - any segment seal (a roll while appending, before a compaction, or
//     at Close), which gives the sealed segment a key index — caught by
//     comparing the backend's seal epoch, since appends roll without the
//     store lock.
//
// With the snapshot in hand, selection intersects each train probe's
// distinct key hashes against the indexed segments, accumulating exact
// KeyOverlap counts per record, and maps the records that clear
// MinJoinSize straight to their eligible positions: per-query cost is
// O(postings of the train's keys + visited candidates), independent of
// catalog size. Candidates without index coverage (the unsealed active
// segment, frozen or legacy segments, corrupt index sections, records
// repeating a key hash) are always visited and prefiltered per pair by
// the worker loop, so the indexed, fallback and mem-backend paths
// produce bit-identical rankings and identical Pruned counts.

import (
	"slices"
	"sort"
	"strings"

	"misketch/internal/core"
)

// admitKey is what admission depends on besides the catalog itself.
type admitKey struct {
	prefix string
	seed   uint32
	// keepEmpty admits empty sketches too: a negative MinJoinSize keeps
	// even empty joins.
	keepEmpty bool
}

// admission is one immutable admission snapshot; queries share it
// read-only.
type admission struct {
	key   admitKey
	seals uint64 // the backend's seal epoch when the snapshot was built

	eligible []Meta   // admitted candidates, sorted by name
	skipped  []string // prefix-matching names of another seed or role, sorted
	pins     map[uint64]struct{}
	// segs are the indexed segments holding eligible candidates.
	segs []admitSeg
	// indexed marks the eligible positions a segment index covers: the
	// record is in its index and repeats no key hash, so selection may
	// exclude it without a decode. prunable counts them.
	indexed  []bool
	prunable int
	// always lists the eligible positions without index coverage; every
	// query visits them and the worker loop prefilters them per pair.
	always []int32
}

// admitSeg is one indexed segment of a snapshot.
type admitSeg struct {
	ix *keyIndex
	// elig maps an index ordinal to its eligible position, or -1 when
	// the record is not a prunable eligible candidate.
	elig []int32
}

// selectScratch is the per-query selection state, pooled on the Store
// so steady-state selection allocates only its result.
type selectScratch struct {
	acc     []int64 // all-zero between uses (reset through touched)
	touched []int32
	picked  []int32
}

// sealEpoch reports how many segments bk has sealed since it was
// opened; a snapshot built at an older epoch may treat a now-indexed
// segment as unindexed.
func sealEpoch(bk backend) uint64 {
	if fb, ok := bk.(*fsBackend); ok {
		return fb.seals.Load()
	}
	return 0
}

// admissionLocked returns the admission snapshot for key, reusing the
// cached one when it is still current and building (and caching) a new
// one otherwise. Callers hold s.mu.
func (s *Store) admissionLocked(key admitKey) *admission {
	seals := sealEpoch(s.backend)
	if a := s.admit; a != nil && a.key == key && a.seals == seals {
		s.admitReuses.Add(1)
		return a
	}
	a := buildAdmission(s.manifest, s.backend, key, seals)
	s.admit = a
	s.admitBuilds.Add(1)
	return a
}

// dropAdmissionLocked discards the cached snapshot if a mutation of
// name could change it; an empty name drops it unconditionally.
// Callers hold s.mu.
func (s *Store) dropAdmissionLocked(name string) {
	if a := s.admit; a != nil && (name == "" || strings.HasPrefix(name, a.key.prefix)) {
		s.admit = nil
	}
}

// buildAdmission walks the manifest once. The caller holds the store
// lock, under which no segment can be retired, so reading the segments'
// key indexes needs no pins.
func buildAdmission(manifest map[string]Meta, bk backend, key admitKey, seals uint64) *admission {
	a := &admission{key: key, seals: seals, pins: make(map[uint64]struct{})}
	for name, m := range manifest {
		if !strings.HasPrefix(name, key.prefix) {
			continue
		}
		if m.Seed != key.seed || m.Role != core.RoleCandidate {
			a.skipped = append(a.skipped, name)
			continue
		}
		if m.Entries == 0 && !key.keepEmpty {
			continue // an empty sketch joins nothing; filter without a read
		}
		a.eligible = append(a.eligible, m)
		a.pins[m.Segment] = struct{}{}
	}
	sort.Strings(a.skipped)
	sort.Slice(a.eligible, func(i, j int) bool { return a.eligible[i].Name < a.eligible[j].Name })

	a.indexed = make([]bool, len(a.eligible))
	fb, _ := bk.(*fsBackend)
	segAt := make(map[uint64]int) // segment → position in segs, -1 when unindexed
	for i, m := range a.eligible {
		k, seen := segAt[m.Segment]
		if !seen {
			k = -1
			if fb != nil {
				if ix := fb.keyIndexOf(m.Segment); ix != nil {
					elig := make([]int32, ix.records())
					for o := range elig {
						elig[o] = -1
					}
					k = len(a.segs)
					a.segs = append(a.segs, admitSeg{ix: ix, elig: elig})
				}
			}
			segAt[m.Segment] = k
		}
		if k >= 0 {
			// Records the index lacks fail open (visited); records
			// repeating a key hash are prefilter-exempt and must reach
			// the estimator exactly as the full walk would.
			ix := a.segs[k].ix
			if ord, ok := ix.ordinalOf(m.Offset); ok && !ix.isDup(ord) {
				a.segs[k].elig[ord] = int32(i)
				a.indexed[i] = true
				a.prunable++
				continue
			}
		}
		a.always = append(a.always, int32(i))
	}
	return a
}

// selectCandidates filters the snapshot through the segments' key
// indexes. It returns the candidates to visit in name order, certified
// (parallel to visit) marking those an index selected — for a single
// train their overlap is above minJoin by construction — and the number
// of prunable candidates excluded without a decode: each was proven
// prunable for every train, so it contributes one pruned pair per query.
// The caller holds pins on every segment in the snapshot.
func (s *Store) selectCandidates(a *admission, probes []*core.TrainProbe, minJoin int) (visit []Meta, certified []bool, prunedAll int) {
	sc, _ := s.selectPool.Get().(*selectScratch)
	if sc == nil {
		sc = new(selectScratch)
	}
	picked := sc.picked[:0]
	for _, sg := range a.segs {
		n := sg.ix.records()
		if cap(sc.acc) < n {
			sc.acc = make([]int64, n)
		}
		acc := sc.acc[:n]
		for q := range probes {
			hashes, mults := probes[q].DistinctKeyHashes()
			touched := sc.touched[:0]
			for i, hk := range hashes {
				touched = sg.ix.accumulate(hk, int64(mults[i]), acc, touched)
			}
			for _, ord := range touched {
				if acc[ord] > int64(minJoin) {
					if e := sg.elig[ord]; e >= 0 {
						picked = append(picked, e)
					}
				}
				acc[ord] = 0
			}
			sc.touched = touched
		}
	}
	if len(probes) > 1 {
		// Several trains may select the same candidate.
		slices.Sort(picked)
		picked = slices.Compact(picked)
	}
	prunedAll = a.prunable - len(picked)
	picked = append(picked, a.always...)
	slices.Sort(picked) // eligible positions are in name order
	visit = make([]Meta, len(picked))
	certified = make([]bool, len(picked))
	for k, e := range picked {
		visit[k] = a.eligible[e]
		certified[k] = a.indexed[e]
	}
	sc.picked = picked
	s.selectPool.Put(sc)
	return visit, certified, prunedAll
}

package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark shares its host with other virtual machines, and the
// hypervisor steals CPU from it in bursts of a few seconds. A window is
// therefore cut into one-second slices, each slice's steal share is
// read from /proc/stat, and the metrics are taken over the quiet
// slices: those below quietSteal, or, when fewer than half the slices
// are quiet, the least-stolen half. Operations belong to the slice in
// which they complete.
const (
	sliceLen   = time.Second
	quietSteal = 0.02
)

// cpuTicks reads the host-wide steal and total CPU ticks; ok is false
// where /proc/stat or its steal column is missing.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// sampleSteal reads the tick counters at start and at each of n slice
// boundaries after it; nil when the counters are unavailable.
func sampleSteal(start time.Time, slice time.Duration, n int) [][2]uint64 {
	var out [][2]uint64
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
		s, t, ok := cpuTicks()
		if !ok {
			return nil
		}
		out = append(out, [2]uint64{s, t})
	}
	return out
}

// measured is a window's end-to-end numbers over its quiet slices.
type measured struct {
	slices, quiet int
	steal         float64 // steal share over the whole window
	quietSteal    float64 // steal share over the quiet slices
	qps           float64
	rankMS        []float64
	writeMS       []float64
}

// slicing fixes a window's slice length and count.
func slicing(dur time.Duration) (time.Duration, int) {
	if dur < sliceLen {
		return dur, 1
	}
	return sliceLen, int(dur / sliceLen)
}

// measure keeps the operations of t that completed in quiet slices.
func measure(t *tally, start time.Time, slice time.Duration, n int, ticks [][2]uint64) measured {
	share := make([]float64, n)
	var stolen, total uint64
	if len(ticks) == n+1 {
		for k := range share {
			ds, dt := ticks[k+1][0]-ticks[k][0], ticks[k+1][1]-ticks[k][1]
			stolen, total = stolen+ds, total+dt
			if dt > 0 {
				share[k] = float64(ds) / float64(dt)
			}
		}
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return share[order[i]] < share[order[j]] })
	keep := make([]bool, n)
	m := measured{slices: n}
	var qs, qt uint64
	for i, k := range order {
		if i >= (n+1)/2 && share[k] >= quietSteal {
			break
		}
		keep[k] = true
		m.quiet++
		if len(ticks) == n+1 {
			qs += ticks[k+1][0] - ticks[k][0]
			qt += ticks[k+1][1] - ticks[k][1]
		}
	}
	if total > 0 {
		m.steal = float64(stolen) / float64(total)
	}
	if qt > 0 {
		m.quietSteal = float64(qs) / float64(qt)
	}
	in := func(end time.Time) bool {
		k := int(end.Sub(start) / slice)
		return k >= 0 && k < n && keep[k]
	}
	ranks := 0
	for _, s := range t.rankLat {
		if in(s.end) {
			ranks++
			m.rankMS = append(m.rankMS, msOf(s.lat))
		}
	}
	for _, s := range t.writeLat {
		if in(s.end) {
			m.writeMS = append(m.writeMS, msOf(s.lat))
		}
	}
	m.qps = float64(ranks) / (float64(m.quiet) * slice.Seconds())
	return m
}

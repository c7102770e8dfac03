package main

import (
	"math"
	"runtime"
	"sort"
)

// quantile returns the q-th quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the ceil(q*n)-th smallest sample, an observed value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quiet returns the best decile of xs (its 10th percentile): the cost of
// the work in the host's quiet spells. Other tenants slow a shared host
// for seconds at a time, and by uneven amounts; the quiet spells recur at
// one speed, so a run that spreads its samples over time reads the same
// from run to run, where a median or a mean drifts with the share of
// slow spells.
func quiet(xs []float64) float64 { return quantile(xs, 0.1) }

// exactBound is the range of nanosecond latencies a latencies recorder
// counts in one bucket per nanosecond; slower samples are kept verbatim.
const exactBound = 1 << 16

// latencies records nanosecond samples exactly: a counting array for the
// common fast range and the raw values above it, so quantiles are observed
// samples rather than bucket edges.
type latencies struct {
	counts [exactBound]uint32
	slow   []int64
	n      int64
}

func (l *latencies) add(ns int64) {
	l.n++
	if ns >= 0 && ns < exactBound {
		l.counts[ns]++
		return
	}
	l.slow = append(l.slow, ns)
}

func (l *latencies) merge(o *latencies) {
	for i, c := range o.counts {
		l.counts[i] += c
	}
	l.slow = append(l.slow, o.slow...)
	l.n += o.n
}

// quantile returns the nearest-rank q-th quantile in nanoseconds.
func (l *latencies) quantile(q float64) int64 {
	if l.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(l.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for ns, c := range l.counts {
		seen += int64(c)
		if seen >= rank {
			return int64(ns)
		}
	}
	sort.Slice(l.slow, func(i, j int) bool { return l.slow[i] < l.slow[j] })
	return l.slow[rank-seen-1]
}

// interpolated is quantile with the clock's 1 ns quantisation undone:
// inside the exact range, the samples of one nanosecond bucket are taken
// as spread evenly across it, so a quantile moves smoothly with the
// distribution instead of in whole nanoseconds.
func (l *latencies) interpolated(q float64) float64 {
	if l.n == 0 {
		return 0
	}
	rank := q * float64(l.n)
	var seen float64
	for ns, c := range l.counts {
		if c > 0 && seen+float64(c) >= rank {
			return float64(ns) + (rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(l.quantile(q))
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mix derives a well-spread 63-bit generator seed from the run seed and a
// base seed (SplitMix64 finalizer).
func mix(seed, base int64) int64 {
	z := uint64(base) ^ uint64(seed)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

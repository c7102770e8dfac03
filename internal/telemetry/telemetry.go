// Package telemetry holds the lock-free instruments the engine's
// observability layer is built from: atomic counters and gauges, a
// log-bucketed latency histogram whose hot path (Observe) performs no
// allocation and takes no lock, a Tracer hook interface the engine fires
// its lifecycle events through, and a dependency-free Prometheus
// text-exposition writer (prom.go).
//
// The design constraint throughout is the engine's zero-allocation query
// contract: instruments sit directly on hot paths (per-query counters,
// per-build latency observations), so every mutating operation is a single
// atomic RMW on pre-sized storage. Reading is the slow path: Snapshot
// copies the bucket array once and all derived statistics (quantiles,
// mean, merge) work on the copy.
//
// Memory ordering: all fields are updated with atomic adds and read with
// atomic loads, so a snapshot taken concurrently with writers is a
// per-word-consistent view — each bucket value is a real count that was
// current at some moment during the copy, but buckets copied earlier may
// miss observations that buckets copied later include. Derived statistics
// therefore treat the bucket array itself as the source of truth (Count is
// the sum over the copied buckets, never a separately-read counter), which
// keeps every snapshot internally consistent: quantile ranks always refer
// to observations actually present in the copy.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be >= 0 for the Prometheus
// exposition to stay well formed; nothing enforces it).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, resident count).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket layout: log-linear (HDR-style). Values below subCount
// get one bucket each (exact); above that, every power-of-two octave
// [2^e, 2^(e+1)) is split into subCount equal sub-buckets, so the relative
// quantile error is bounded by 1/subCount = 12.5% while the whole int64
// range fits in a fixed array of numBuckets counters (~3.8 KiB of
// uint64s) — mergeable by element-wise addition, scrape-able without
// stopping writers.
const (
	subBits  = 3
	subCount = 1 << subBits // sub-buckets per octave; also the exact range

	// Octaves above the exact range: exponents subBits..62 (int64 max has
	// exponent 62), subCount sub-buckets each, plus the exact buckets.
	numBuckets = subCount + (63-subBits)*subCount
)

// bucketIndex maps a non-negative value to its bucket. Values < subCount
// map to their own width-1 bucket; larger values index by (octave,
// sub-bucket). Negative values clamp to bucket 0.
func bucketIndex(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v) >= subBits
	sub := int(v>>(uint(exp)-subBits)) & (subCount - 1)
	return subCount + (exp-subBits)*subCount + sub
}

// BucketBounds returns bucket i's half-open value range [lo, hi). The
// final bucket's upper edge saturates at math.MaxInt64, where it is
// inclusive (the bucket holds every value up to and including MaxInt64).
func BucketBounds(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i) + 1
	}
	k := i - subCount
	exp := uint(subBits + k/subCount)
	sub := int64(k % subCount)
	width := int64(1) << (exp - subBits)
	lo = int64(1)<<exp + sub*width
	hi = lo + width
	if hi < lo { // 2^63 overflowed: the topmost bucket
		hi = math.MaxInt64
	}
	return lo, hi
}

// Histogram is a fixed-size log-bucketed latency histogram. Observe is
// lock-free and allocation-free; Snapshot copies the buckets for analysis.
// The zero value is ready to use. Values are dimensionless int64s — by
// convention nanoseconds on every engine latency series.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value. Negative values clamp to zero (and
// contribute nothing to Sum), so a misbehaving clock cannot corrupt the
// distribution.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since start, in nanoseconds — the
// one-liner for latency instrumentation sites.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// Snapshot captures the histogram's current state for analysis. The copy
// is per-bucket atomic (see the package comment on memory ordering);
// Count is derived from the copied buckets so the snapshot is always
// internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]uint64, numBuckets), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: a plain value
// with no atomics, safe to marshal, compare, and merge. The zero value is
// a valid empty snapshot.
type HistogramSnapshot struct {
	// Count is the number of observations (the sum over Buckets).
	Count uint64
	// Sum totals the observed values (clamped at zero per observation).
	Sum int64
	// Buckets holds per-bucket observation counts; index i covers
	// BucketBounds(i). Nil for an empty snapshot.
	Buckets []uint64
}

// Merge returns the element-wise sum of s and o — the snapshot that a
// single histogram observing both input streams would have produced.
// Merging is commutative and associative, so per-shard or per-process
// histograms aggregate in any order.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Buckets == nil {
		s.Buckets = make([]uint64, numBuckets)
	} else {
		s.Buckets = append([]uint64(nil), s.Buckets...)
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return s
}

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1) of
// the observed values: the inclusive upper edge of the bucket holding the
// ceil(q*Count)-th smallest observation. Values below subCount are exact;
// above, the bound overshoots by at most one sub-bucket width (12.5%
// relative). Returns 0 for an empty snapshot. Quantile is nondecreasing
// in q.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			_, hi := BucketBounds(i)
			return hi - 1
		}
	}
	_, hi := BucketBounds(len(s.Buckets) - 1)
	return hi - 1
}

// P50 is Quantile(0.50): the median latency bound.
func (s HistogramSnapshot) P50() int64 { return s.Quantile(0.50) }

// P90 is Quantile(0.90).
func (s HistogramSnapshot) P90() int64 { return s.Quantile(0.90) }

// P99 is Quantile(0.99): the tail the paper's latency-shape claim is
// about.
func (s HistogramSnapshot) P99() int64 { return s.Quantile(0.99) }

// P999 is Quantile(0.999).
func (s HistogramSnapshot) P999() int64 { return s.Quantile(0.999) }

// Mean returns the average observed value, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Tracer is the engine's lifecycle hook interface: one callback per event
// the engine and its snapshot tier emit. Callbacks run synchronously on
// the emitting goroutine — often inside the engine's hot paths — so
// implementations must be fast, must not block, and must not call back
// into the engine (the engine mutex may be held by the caller's frame). All callbacks may be invoked concurrently.
//
// Embed NopTracer to implement only the events of interest and stay
// source-compatible when new callbacks are added.
type Tracer interface {
	// BuildStart fires when an analysis build begins (first build, eviction
	// refill, staleness rebuild).
	BuildStart(fn string)
	// BuildEnd fires when the build finishes; err is nil on success.
	BuildEnd(fn string, d time.Duration, err error)
	// QueryBatch fires once per batched query execution with the batch
	// size and the time spent answering it.
	QueryBatch(fn string, queries int, d time.Duration)
	// SnapshotLoad fires after a snapshot-tier load attempt; hit reports
	// whether a validated snapshot served the build.
	SnapshotLoad(fn string, hit bool, d time.Duration)
	// SnapshotSave fires after a snapshot write-back attempt, on the
	// building goroutine.
	SnapshotSave(ok bool, d time.Duration)
	// QuarantineEnter fires when a panicking build quarantines a function.
	QuarantineEnter(fn string)
	// QuarantineClear fires when a quarantine ends: an edit or Invalidate
	// dropped the recorded failure.
	QuarantineClear(fn string)
}

// NopTracer is a Tracer that ignores every event; embed it in partial
// implementations. The engine substitutes it for a nil EngineConfig.Tracer
// so instrumentation sites never nil-check.
type NopTracer struct{}

// BuildStart implements Tracer.
func (NopTracer) BuildStart(string) {}

// BuildEnd implements Tracer.
func (NopTracer) BuildEnd(string, time.Duration, error) {}

// QueryBatch implements Tracer.
func (NopTracer) QueryBatch(string, int, time.Duration) {}

// SnapshotLoad implements Tracer.
func (NopTracer) SnapshotLoad(string, bool, time.Duration) {}

// SnapshotSave implements Tracer.
func (NopTracer) SnapshotSave(bool, time.Duration) {}

// QuarantineEnter implements Tracer.
func (NopTracer) QuarantineEnter(string) {}

// QuarantineClear implements Tracer.
func (NopTracer) QuarantineClear(string) {}

// NumBuckets reports the fixed bucket count of every Histogram — exposed
// for tests and exporters that iterate bucket bounds.
func NumBuckets() int { return numBuckets }

package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundsExact: every value below subCount owns a width-1 bucket,
// so small latencies (and all count-like observations) are exact.
func TestBucketBoundsExact(t *testing.T) {
	for v := int64(0); v < subCount; v++ {
		i := bucketIndex(v)
		lo, hi := BucketBounds(i)
		if lo != v || hi != v+1 {
			t.Fatalf("value %d: bucket %d bounds [%d,%d), want exact [%d,%d)", v, i, lo, hi, v, v+1)
		}
	}
}

// TestBucketIndexInBounds: every value lands inside its bucket's bounds,
// buckets partition the value space in order, and the index is monotone.
func TestBucketIndexInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(v int64) {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("value %d: bucket %d out of range [0,%d)", v, i, numBuckets)
		}
		lo, hi := BucketBounds(i)
		// The topmost bucket's saturated edge is inclusive.
		if v < lo || (v >= hi && !(hi == math.MaxInt64 && v == hi)) {
			t.Fatalf("value %d: outside its bucket %d bounds [%d,%d)", v, i, lo, hi)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for n := 0; n < 10000; n++ {
		check(rng.Int63())
	}
	check(int64(1) << 62)
	check(1<<63 - 1)

	// Bucket edges tile the space contiguously.
	for i := 0; i < numBuckets-1; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if hi != lo {
			t.Fatalf("buckets %d and %d do not tile: %d vs %d", i, i+1, hi, lo)
		}
	}

	// Monotone: larger values never map to smaller buckets.
	prev := bucketIndex(0)
	for v := int64(1); v < 1<<20; v += 7 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

// TestQuantileMonotone: for any observation mix, Quantile is nondecreasing
// in q, and every quantile is an upper bound >= some observed value's
// bucket floor.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Mix exact small values with heavy-tailed large ones.
			if rng.Intn(2) == 0 {
				h.Observe(int64(rng.Intn(8)))
			} else {
				h.Observe(rng.Int63n(1 << uint(3+rng.Intn(40))))
			}
		}
		s := h.Snapshot()
		if s.Count != uint64(n) {
			t.Fatalf("trial %d: count %d, want %d", trial, s.Count, n)
		}
		prev := int64(-1)
		for q := 0.01; q <= 1.0; q += 0.01 {
			v := s.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: Quantile(%v)=%d < Quantile(prev)=%d", trial, q, v, prev)
			}
			prev = v
		}
		if s.Quantile(1.0) < s.Quantile(0.999) || s.Quantile(0.999) < s.P99() ||
			s.P99() < s.P90() || s.P90() < s.P50() {
			t.Fatalf("trial %d: named quantiles out of order", trial)
		}
	}
}

// TestQuantileExactSmall: with only width-1 buckets populated, quantiles
// are exact order statistics.
func TestQuantileExactSmall(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 3, 3, 7} { // 8 observations
		h.Observe(v)
	}
	s := h.Snapshot()
	cases := []struct {
		q    float64
		want int64
	}{
		{0.125, 0}, {0.25, 1}, {0.375, 1}, {0.5, 2},
		{0.625, 3}, {0.875, 3}, {1.0, 7},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if s.Sum != 20 {
		t.Errorf("Sum = %d, want 20", s.Sum)
	}
}

// TestQuantileErrorBound: the quantile upper bound overshoots the true
// order statistic by at most one sub-bucket width (12.5% relative).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var h Histogram
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
		h.Observe(vals[i])
	}
	s := h.Snapshot()
	// Exact order statistic for p99.
	sorted := append([]int64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	rank := int(0.99 * float64(len(sorted)))
	exact := sorted[rank-1]
	got := s.Quantile(0.99)
	if got < exact {
		t.Fatalf("p99 bound %d below exact order statistic %d", got, exact)
	}
	if float64(got) > float64(exact)*1.125+1 {
		t.Fatalf("p99 bound %d overshoots exact %d by more than 12.5%%", got, exact)
	}
}

// TestMergeAssociative: Merge is associative and commutative, and merging
// matches observing the union stream.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mk := func(n int) (*Histogram, []int64) {
		h := &Histogram{}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 20)
			h.Observe(vals[i])
		}
		return h, vals
	}
	ha, va := mk(100)
	hb, vb := mk(200)
	hc, vc := mk(50)
	a, b, c := ha.Snapshot(), hb.Snapshot(), hc.Snapshot()

	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	comm := c.Merge(a).Merge(b)

	var union Histogram
	for _, vs := range [][]int64{va, vb, vc} {
		for _, v := range vs {
			union.Observe(v)
		}
	}
	want := union.Snapshot()

	for name, got := range map[string]HistogramSnapshot{"left": left, "right": right, "comm": comm} {
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("%s: count/sum %d/%d, want %d/%d", name, got.Count, got.Sum, want.Count, want.Sum)
		}
		for i := range want.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("%s: bucket %d = %d, want %d", name, i, got.Buckets[i], want.Buckets[i])
			}
		}
	}

	// Merge must not mutate its receiver or argument.
	if a.Count != 100 || b.Count != 200 || c.Count != 50 {
		t.Fatalf("Merge mutated an input snapshot: %d/%d/%d", a.Count, b.Count, c.Count)
	}

	// Merging into a zero snapshot is identity.
	var zero HistogramSnapshot
	id := zero.Merge(a)
	if id.Count != a.Count || id.Sum != a.Sum {
		t.Fatalf("zero.Merge(a) = %d/%d, want %d/%d", id.Count, id.Sum, a.Count, a.Sum)
	}
}

// TestEmptySnapshot: the zero snapshot and an unobserved histogram answer
// safely.
func TestEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	var zero HistogramSnapshot
	if zero.Quantile(0.5) != 0 || zero.Mean() != 0 {
		t.Fatal("zero-value snapshot must answer 0")
	}
}

// TestObserveNegative: negative observations clamp to bucket 0 and do not
// corrupt Sum.
func TestObserveNegative(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(3)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 3 {
		t.Fatalf("count/sum = %d/%d, want 2/3", s.Count, s.Sum)
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("negative observation not clamped to bucket 0: %v", s.Buckets[:4])
	}
}

// TestObserveSince smoke-checks the time helper.
func TestObserveSince(t *testing.T) {
	var h Histogram
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Sum < int64(time.Millisecond) {
		t.Fatalf("ObserveSince recorded %d/%d", s.Count, s.Sum)
	}
}

// TestConcurrentObserveSnapshot hammers a histogram, counters and gauges
// from writer goroutines while readers snapshot continuously — the
// scrape-under-load race test (run with -race). Every snapshot must be
// internally consistent: Count equals the bucket sum by construction, and
// the final state must account for every observation.
func TestConcurrentObserveSnapshot(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	var h Histogram
	var c Counter
	var g Gauge

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := h.Snapshot()
				var sum uint64
				for _, n := range s.Buckets {
					sum += n
				}
				if sum != s.Count {
					t.Errorf("snapshot count %d != bucket sum %d", s.Count, sum)
					return
				}
				s.Quantile(0.99)
				c.Load()
				g.Load()
			}
		}()
	}

	var writersWG sync.WaitGroup
	writersWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Int63n(1 << 22))
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}(int64(w + 1))
	}
	writersWG.Wait()
	close(done)
	readers.Wait()

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count %d, want %d", s.Count, writers*perWriter)
	}
	if c.Load() != writers*perWriter {
		t.Fatalf("counter %d, want %d", c.Load(), writers*perWriter)
	}
	if g.Load() != 0 {
		t.Fatalf("gauge %d, want 0", g.Load())
	}
}

// TestObserveZeroAlloc pins the hot path: Observe and the counter/gauge
// adds must not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		c.Inc()
		g.Set(7)
	}); n != 0 {
		t.Fatalf("hot-path instruments allocate %v allocs/op, want 0", n)
	}
}

// TestNopTracer exercises every no-op callback so the interface stays
// implemented as it grows.
func TestNopTracer(t *testing.T) {
	var tr Tracer = NopTracer{}
	tr.BuildStart("f")
	tr.BuildEnd("f", time.Millisecond, nil)
	tr.QueryBatch("f", 3, time.Microsecond)
	tr.SnapshotLoad("f", true, 0)
	tr.SnapshotSave(false, 0)
	tr.QuarantineEnter("f")
	tr.QuarantineClear("f")
}

package trace

import (
	"math"
	"slices"
	"testing"
)

func TestBucketBounds(t *testing.T) {
	b := BucketBounds()
	if len(b) != NumBuckets {
		t.Fatalf("got %d bounds, want %d", len(b), NumBuckets)
	}
	if b[0] != 1e-6 {
		t.Errorf("first bound %g, want 1e-6", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Errorf("bound %d = %g, want doubling", i, b[i])
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("zero value not empty")
	}
	h.Observe(0)          // first bucket
	h.Observe(-5)         // clamps to 0
	h.Observe(math.NaN()) // clamps to 0
	h.Observe(3e-6)       // third bucket (2µs..4µs]
	h.Observe(1e9)        // +Inf bucket
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 3e-6+1e9 {
		t.Errorf("sum = %g", h.Sum())
	}
	c := h.Counts()
	if c[0] != 3 || c[2] != 1 || c[NumBuckets] != 1 {
		t.Errorf("counts = %v", c)
	}
}

// TestHistogramBucketMatchesScan: Observe picks exactly the bucket a
// linear scan of the bounds picks (after clamping negatives and NaN to 0),
// at every bound, one ulp either side of it, and at the edge values.
func TestHistogramBucketMatchesScan(t *testing.T) {
	scan := func(v float64) int {
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		for i, bound := range BucketBounds() {
			if v <= bound {
				return i
			}
		}
		return NumBuckets
	}
	vals := []float64{0, math.Copysign(0, -1), -1e-9, -5, math.Inf(-1), math.NaN(), math.Inf(1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e3, 1e9}
	for _, b := range BucketBounds() {
		vals = append(vals, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), 1.5*b)
	}
	for _, v := range vals {
		var h Histogram
		h.Observe(v)
		got := slices.Index(h.Counts(), 1)
		if want := scan(v); got != want {
			t.Errorf("Observe(%v) counted in bucket %d, the linear scan picks %d", v, got, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	// 100 observations spread evenly in (2µs, 4µs] — one bucket; linear
	// interpolation makes the median land mid-bucket.
	for i := 0; i < 100; i++ {
		h.Observe(3e-6)
	}
	q := h.Quantile(0.5)
	lo, hi := 2e-6, 4e-6
	if q < lo || q > hi {
		t.Errorf("median %g outside bucket (%g, %g]", q, lo, hi)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Error("quantiles not monotone at the extremes")
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("out-of-range q not clamped")
	}
	// Rank landing in +Inf clamps to the last finite bound.
	var inf Histogram
	inf.Observe(1e9)
	if got := inf.Quantile(0.99); got != BucketBounds()[NumBuckets-1] {
		t.Errorf("+Inf quantile = %g, want last bound", got)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1e-5, 2e-5, 4e-5, 8e-5, 1.6e-4, 3.2e-4} {
		h.Observe(v)
	}
	p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("percentiles not ordered: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	if p50 < 1e-5 || p99 > 6.4e-4 {
		t.Errorf("percentiles outside observed range: p50=%g p99=%g", p50, p99)
	}
}

func TestHistogramMergeClone(t *testing.T) {
	var a, b Histogram
	a.Observe(1e-5)
	b.Observe(1e-3)
	c := a.Clone()
	c.Merge(&b)
	if c.Count() != 2 || a.Count() != 1 {
		t.Errorf("merge/clone counts: c=%d a=%d", c.Count(), a.Count())
	}
	if c.Sum() != 1e-5+1e-3 {
		t.Errorf("merged sum = %g", c.Sum())
	}
}

package trace

import "math"

// NumBuckets is the number of finite histogram buckets; observations
// above the last bound land in the implicit +Inf bucket.
const NumBuckets = 28

// bucketBounds are the upper bounds (inclusive, in seconds) of the
// latency buckets: powers of two from 1µs to ~128s. Fixed bounds keep
// Observe alloc-free and make every histogram in the process directly
// comparable and mergeable.
var bucketBounds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// boundFrac and boundExp are the first bound's binary mantissa and
// exponent (math.Frexp). Doubling is exact, so bound i is exactly
// boundFrac × 2^(boundExp+i).
var boundFrac, boundExp = math.Frexp(bucketBounds[0])

// bucket returns the index of v's bucket: that of the first bound v does
// not exceed, or NumBuckets for the +Inf bucket. It reads the index off v's
// binary exponent instead of scanning the bounds: v in (bound i-1, bound i]
// has exponent boundExp+i, or boundExp+i-1 with a mantissa above boundFrac.
// Zero, negative values and NaN land in the first bucket.
func bucket(v float64) int {
	switch {
	case !(v > bucketBounds[0]):
		return 0
	case v > bucketBounds[NumBuckets-1]:
		return NumBuckets
	}
	f, e := math.Frexp(v)
	i := e - boundExp
	if f > boundFrac {
		i++
	}
	return i
}

// BucketBounds returns the shared upper bounds in seconds, smallest
// first. The slice is a copy; callers may keep it.
func BucketBounds() []float64 {
	b := make([]float64, NumBuckets)
	copy(b[:], bucketBounds[:])
	return b
}

// Histogram is a fixed-bound log-bucketed latency histogram. Observe and
// Quantile are alloc-free; the zero value is ready to use. Histogram is
// not synchronized — callers that share one across goroutines hold their
// own lock (serve keeps each histogram in one stripe of its stats tally,
// under that stripe's mutex, and merges the stripes' copies to read them).
type Histogram struct {
	counts [NumBuckets + 1]uint64 // counts[NumBuckets] is the +Inf bucket
	count  uint64
	sum    float64
}

// Observe records one value (seconds). Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.count++
	h.sum += v
	h.counts[bucket(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values in seconds.
func (h *Histogram) Sum() float64 { return h.sum }

// Counts returns the per-bucket counts (not cumulative); the last entry
// is the +Inf bucket. The slice is a copy.
func (h *Histogram) Counts() []uint64 {
	c := make([]uint64, NumBuckets+1)
	copy(c, h.counts[:])
	return c
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation within the bucket holding the target rank, the usual
// Prometheus histogram_quantile estimate. It returns 0 for an empty
// histogram, and the last finite bound when the rank lands in +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == NumBuckets {
				return bucketBounds[NumBuckets-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bucketBounds[i-1]
			}
			hi := bucketBounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return bucketBounds[NumBuckets-1]
}

// Merge adds the other histogram's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// Clone returns a copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 < q < 100) of sorted samples by
// the nearest-rank rule: the smallest sample with at least q% of the
// samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*q/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder is the percentiles a latency report may quote, ascending, in
// tenths of a percent so that the sample arithmetic stays in integers.
var tailLadder = []int{500, 900, 950, 990, 999}

// highestPercentile picks the highest rung of tailLadder that still has at
// least ten samples beyond it — a tail quoted from fewer is one or two
// outliers, not a percentile. It returns 0 when even the median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if n*(1000-q) >= 10*1000 {
			best = float64(q) / 10
		}
	}
	return best
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads -compare prints are the ones the gate computes. It needs two
// values at least.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

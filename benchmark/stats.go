package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile of xs (p in [0, 1]) with linear
// interpolation between adjacent order statistics — the estimator
// internal/stats uses, kept local so the benchmark's numbers do not move when
// that package is refactored. xs is not modified; empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailLadder is the set of tail percentiles the benchmark reports from,
// ascending.
var tailLadder = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// tailPercentile applies the reporting rule for a timing's tail: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// ok is false when even the lowest rung has fewer than ten samples beyond it
// (n < 40), in which case only the median is worth reporting.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		// The epsilon keeps exact cases exact: 100 × (1 − 0.9) must count as
		// ten samples, not 9.999….
		if float64(n)*(1-q) >= 10-1e-9 {
			p, ok = q, true
		}
	}
	return p, ok
}

// samplesBeyond is how many of n samples lie above the p-quantile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method): the acceptance
// driver computes run-to-run spread with that function, so -compare has to
// agree with it to the digit. Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python does: may extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of their median —
// the run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// unionLength is the total length covered by the half-open intervals
// [lo[i], hi[i]) after clipping each to [from, to).
func unionLength(iv [][2]int64, from, to int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		lo, hi := v[0], v[1]
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			clipped = append(clipped, [2]int64{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	end := from
	for _, v := range clipped {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

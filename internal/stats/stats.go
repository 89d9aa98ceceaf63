// Package stats provides the distance and geometry utilities FedKNOW's
// signature-task selection relies on: the 1-D Wasserstein distance between
// gradient coordinate distributions, cosine similarity, and angle tests.
package stats

import (
	"math"
	"sort"

	"repro/internal/tensor"
)

// Wasserstein1D computes the 1-D (order-1) Wasserstein distance between the
// empirical distributions of two equal-length samples: the mean absolute
// difference of their sorted values. The paper uses Wasserstein distance to
// rank past-task gradients by dissimilarity to the current gradient
// (§III-C); the 1-D form over gradient coordinates is the standard
// tractable surrogate.
func Wasserstein1D(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("stats: Wasserstein1D length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	as := append([]float32(nil), a...)
	bs := append([]float32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	var s float64
	for i := range as {
		s += math.Abs(float64(as[i]) - float64(bs[i]))
	}
	return s / float64(len(as))
}

// SubsampledWasserstein computes Wasserstein1D on a strided subsample of at
// most maxN coordinates, which is what the edge clients run: full gradients
// have millions of coordinates and sorting them every iteration would
// dominate training time.
func SubsampledWasserstein(a, b []float32, maxN int) float64 {
	if len(a) != len(b) {
		panic("stats: SubsampledWasserstein length mismatch")
	}
	if maxN <= 0 || len(a) <= maxN {
		return Wasserstein1D(a, b)
	}
	stride := len(a) / maxN
	sa := make([]float32, 0, maxN)
	sb := make([]float32, 0, maxN)
	for i := 0; i < len(a) && len(sa) < maxN; i += stride {
		sa = append(sa, a[i])
		sb = append(sb, b[i])
	}
	return Wasserstein1D(sa, sb)
}

// AngleIsObtuse reports whether two vectors form an obtuse angle
// (dot product < 0), the condition that triggers gradient integration.
func AngleIsObtuse(a, b []float32) bool {
	return tensor.DotSlice(a, b) < 0
}

// TopKDissimilar returns the indices of the k candidates whose distance to
// ref (per dist) is largest, in descending distance order. It implements the
// signature-task selection rule: the most dissimilar past tasks are the ones
// most endangered by the current update.
func TopKDissimilar(ref []float32, candidates [][]float32, k int, dist func(a, b []float32) float64) []int {
	type scored struct {
		idx int
		d   float64
	}
	ss := make([]scored, len(candidates))
	for i, c := range candidates {
		ss[i] = scored{i, dist(ref, c)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].d != ss[j].d {
			return ss[i].d > ss[j].d
		}
		return ss[i].idx < ss[j].idx
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].idx
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-quantile of xs (p in [0, 1]) with linear
// interpolation between adjacent order statistics — the estimator the load
// harness uses for its p50/p99 fold-latency figures. xs is not modified.
// Returns 0 for empty input; panics when p is outside [0, 1].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 1 {
		panic("stats: Percentile fraction outside [0, 1]")
	}
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

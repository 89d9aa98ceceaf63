// Package stats provides the distance utilities FedKNOW's signature-task
// selection relies on: the 1-D Wasserstein distance between gradient
// coordinate distributions, its subsampled approximation, and the
// most-dissimilar selection rule.
package stats

import (
	"math"
	"sort"
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

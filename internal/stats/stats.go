// Package stats provides the distance utilities FedKNOW's signature-task
// selection relies on: the 1-D Wasserstein distance between gradient
// coordinate distributions, on a strided subsample of the coordinates, and
// the most-dissimilar selection rule.
package stats

import (
	"cmp"
	"math"
	"slices"
)

// SortedSubsample overwrites dst with a strided subsample of at most maxN
// coordinates of a (all of them when maxN ≤ 0 or len(a) ≤ maxN), sorted
// ascending, and returns it. Edge clients rank gradients on such a
// subsample: full gradients have millions of coordinates and sorting them
// every iteration would dominate training time. A caller that compares one
// sample with many sorts it once and reuses the result.
func SortedSubsample(dst, a []float32, maxN int) []float32 {
	dst = dst[:0]
	if maxN <= 0 || len(a) <= maxN {
		dst = append(dst, a...)
	} else {
		stride := len(a) / maxN
		for i := 0; i < len(a) && len(dst) < maxN; i += stride {
			dst = append(dst, a[i])
		}
	}
	slices.Sort(dst)
	return dst
}

// SortedDistance is the 1-D (order-1) Wasserstein distance between the
// empirical distributions of two equal-length samples given sorted
// ascending: the mean absolute difference of their sorted values. The paper
// uses Wasserstein distance to rank past-task gradients by dissimilarity to
// the current gradient (§III-C); the 1-D form over gradient coordinates is
// the standard tractable surrogate.
func SortedDistance(as, bs []float32) float64 {
	if len(as) != len(bs) {
		panic("stats: SortedDistance length mismatch")
	}
	if len(as) == 0 {
		return 0
	}
	var s float64
	for i := range as {
		s += math.Abs(float64(as[i]) - float64(bs[i]))
	}
	return s / float64(len(as))
}

// TopK overwrites dst with the indices of the k largest scores, in
// descending score order, ties broken by the lower index, and returns it. It
// implements the signature-task selection rule: the most dissimilar past
// tasks are the ones most endangered by the current update.
func TopK(dst []int, scores []float64, k int) []int {
	dst = dst[:0]
	for i := range scores {
		dst = append(dst, i)
	}
	slices.SortFunc(dst, func(i, j int) int {
		if c := cmp.Compare(scores[j], scores[i]); c != 0 {
			return c
		}
		return i - j
	})
	return dst[:min(k, len(dst))]
}

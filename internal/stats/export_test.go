package stats

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

// Wasserstein1D is the 1-D Wasserstein distance between two equal-length
// samples in any order.
func Wasserstein1D(a, b []float32) float64 {
	return SubsampledWasserstein(a, b, 0)
}

// SubsampledWasserstein is Wasserstein1D on the strided subsamples of at
// most maxN coordinates that signature selection ranks by.
func SubsampledWasserstein(a, b []float32, maxN int) float64 {
	if len(a) != len(b) {
		panic("stats: SubsampledWasserstein length mismatch")
	}
	return SortedDistance(SortedSubsample(nil, a, maxN), SortedSubsample(nil, b, maxN))
}

// TopKDissimilar returns the indices of the k candidates whose distance to
// ref (per dist) is largest, in descending distance order.
func TopKDissimilar(ref []float32, candidates [][]float32, k int, dist func(a, b []float32) float64) []int {
	d := make([]float64, len(candidates))
	for i, c := range candidates {
		d[i] = dist(ref, c)
	}
	return TopK(nil, d, k)
}

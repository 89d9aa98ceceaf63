package prune

import (
	"fmt"
	"math"
	"sort"
)

// Norm selects the filter-ranking norm for structured pruning. §III-B notes
// the knowledge extractor extends to structured techniques such as L1- or
// L2-norm filter pruning [29]; this file provides that extension.
type Norm int

// Supported filter norms.
const (
	L1 Norm = iota
	L2
)

// FilterScores ranks the outC filters of a convolution kernel laid out as
// (outC, fanIn) by the chosen norm, returning one score per filter.
func FilterScores(w []float32, outC, fanIn int, n Norm) []float64 {
	if len(w) != outC*fanIn {
		panic(fmt.Sprintf("prune: kernel length %d != %d×%d", len(w), outC, fanIn))
	}
	scores := make([]float64, outC)
	for f := 0; f < outC; f++ {
		row := w[f*fanIn : (f+1)*fanIn]
		var s float64
		for _, v := range row {
			if n == L1 {
				s += math.Abs(float64(v))
			} else {
				s += float64(v) * float64(v)
			}
		}
		if n == L2 {
			s = math.Sqrt(s)
		}
		scores[f] = s
	}
	return scores
}

// TopFilters returns the indices of the ⌈ρ·outC⌉ highest-scoring filters in
// ascending index order (at least one for positive ρ).
func TopFilters(scores []float64, rho float64) []int {
	k := TopK(len(scores), rho)
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	sel := append([]int(nil), idx[:k]...)
	sort.Ints(sel)
	return sel
}

// ExtractFilters builds a SparseStore retaining the complete rows of the
// selected top-ρ filters of one convolution kernel — structured knowledge
// that preserves whole feature detectors instead of scattered weights.
//
//lint:ignore fedlint/unused-exported staged deletion (ROADMAP 17)
func ExtractFilters(w []float32, outC, fanIn int, rho float64, n Norm) *SparseStore {
	filters := TopFilters(FilterScores(w, outC, fanIn, n), rho)
	out := &SparseStore{N: len(w)}
	for _, f := range filters {
		for j := 0; j < fanIn; j++ {
			idx := int32(f*fanIn + j)
			out.Indices = append(out.Indices, idx)
			out.Values = append(out.Values, w[idx])
		}
	}
	return out
}

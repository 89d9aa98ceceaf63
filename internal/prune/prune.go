// Package prune implements magnitude-based weight pruning and the sparse
// signature-knowledge store (Eq. 1 of the FedKNOW paper): after a task is
// learned, the top-ρ fraction of weights by absolute value is retained as
// that task's knowledge, the rest is discarded.
package prune

import (
	"fmt"

	"repro/internal/tensor"
)

// SparseStore holds the retained weights of one task. It is the shared
// tensor.SparseVec sparse-vector type (parallel slices of ascending flat
// indices and values), so a store plugs directly into the sparse update
// pipeline — the wire codec's sparse frames and the server's sparse
// aggregation kernels — without conversion. Memory footprint is 8 bytes per
// retained weight versus 4 bytes per weight for the dense model, so ρ = 10%
// costs one fifth of a full model copy.
type SparseStore = tensor.SparseVec

// TopK returns the count of weights a ratio rho selects out of n (at least 1
// for any positive rho and n).
func TopK(n int, rho float64) int {
	if n == 0 || rho <= 0 {
		return 0
	}
	k := int(float64(n)*rho + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Extract retains the top-ρ fraction of weights by |w| as a SparseStore.
// Selection runs in O(n) via quickselect on the magnitude threshold; ties at
// the threshold are broken by ascending index, matching a full (|w| desc,
// index asc) sort. NaN magnitudes (diverged models) rank as zero.
func Extract(w []float32, rho float64) *SparseStore {
	k := TopK(len(w), rho)
	if k == 0 {
		return &SparseStore{N: len(w)}
	}
	out := &SparseStore{N: len(w), Indices: make([]int32, 0, k), Values: make([]float32, 0, k)}
	extractInto(out, w, 0, k, make([]float32, len(w)))
	return out
}

// extractInto appends the k largest-magnitude weights of w to out in
// ascending index order, their indices shifted by off. mag is scratch of at
// least len(w) floats.
func extractInto(out *SparseStore, w []float32, off, k int, mag []float32) {
	if k == 0 {
		return
	}
	mag = mag[:len(w)]
	for i, v := range w {
		mag[i] = absOrZero(v)
	}
	t, greater := kthLargest(mag, k)
	ties := k - greater
	for i, v := range w {
		a := absOrZero(v)
		if a > t {
			out.Indices = append(out.Indices, int32(off+i))
			out.Values = append(out.Values, v)
		} else if a == t && ties > 0 {
			ties--
			out.Indices = append(out.Indices, int32(off+i))
			out.Values = append(out.Values, v)
		}
	}
}

// absOrZero is |v| with NaN mapped to 0 so selection has a total order.
func absOrZero(v float32) float32 {
	if v != v {
		return 0
	}
	return abs32(v)
}

// kthLargest returns the k-th largest value of a (1-based) and how many
// values are strictly greater, by iterative quickselect with a median-of-three
// pivot and three-way partitioning, so heavily-duplicated inputs (sparse
// deltas are mostly zeros) stay linear instead of degrading quadratically.
// The slice is permuted in place. Whenever the range narrows, everything left
// of it is greater than everything in it, so the count of greater values is
// where the run of the answer's equals begins.
func kthLargest(a []float32, k int) (kth float32, greater int) {
	pos := k - 1
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot value.
		p0, p1, p2 := a[lo], a[lo+(hi-lo)/2], a[hi]
		if p0 > p1 {
			p0, p1 = p1, p0
		}
		if p1 > p2 {
			p1 = p2
			if p0 > p1 {
				p1 = p0
			}
		}
		pivot := p1
		// Dutch-flag partition, descending: [ >pivot | ==pivot | <pivot ].
		lt, gt := lo, hi
		for i := lo; i <= gt; {
			switch v := a[i]; {
			case v > pivot:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case v < pivot:
				a[i], a[gt] = a[gt], a[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case pos < lt:
			hi = lt - 1
		case pos > gt:
			lo = gt + 1
		default:
			return pivot, lt
		}
	}
	return a[pos], pos
}

// ExtractSegments retains the top-ρ fraction of weights *within each
// segment* (one segment per parameter tensor). Layer-wise selection keeps
// every layer's strongest weights, so the pruned network still propagates
// signal; global selection would concentrate on the layers with the largest
// initialisation scale and zero out whole layers. segments must sum to
// len(w).
func ExtractSegments(w []float32, segments []int, rho float64) *SparseStore {
	total, longest, sum := 0, 0, 0
	for _, segLen := range segments {
		total += TopK(segLen, rho)
		longest = max(longest, segLen)
		sum += segLen
	}
	if sum != len(w) {
		panic(fmt.Sprintf("prune: segments sum %d, want %d", sum, len(w)))
	}
	out := &SparseStore{N: len(w)}
	if total == 0 {
		return out
	}
	out.Indices, out.Values = make([]int32, 0, total), make([]float32, 0, total)
	mag := make([]float32, longest)
	off := 0
	for _, segLen := range segments {
		extractInto(out, w[off:off+segLen], off, TopK(segLen, rho), mag)
		off += segLen
	}
	return out
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

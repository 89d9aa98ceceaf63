package tensor

import "fmt"

// SparseVec is a sparse view of a dense float32 vector: parallel slices of
// flat indices (strictly ascending) and values. It is the shared currency of
// the sparse update pipeline — prune builds one from a magnitude mask, the
// wire codec ships it as a varint-delta frame, and the server aggregates it
// with the fused kernels below, all without densifying. Memory footprint is
// 8 bytes per retained weight versus 4 bytes per weight for the dense vector,
// so ρ = 10% costs one fifth of a full copy.
type SparseVec struct {
	N       int // length of the dense vector this was extracted from
	Indices []int32
	Values  []float32
}

// Bytes returns the approximate memory footprint of the vector.
func (s *SparseVec) Bytes() int { return len(s.Indices)*4 + len(s.Values)*4 }

// Len returns the number of stored coordinates.
func (s *SparseVec) Len() int { return len(s.Indices) }

// Mask returns a boolean mask over the dense vector with true at stored
// positions.
func (s *SparseVec) Mask() []bool {
	m := make([]bool, s.N)
	for _, i := range s.Indices {
		m[i] = true
	}
	return m
}

// PasteInto writes the stored values into dst at their original positions,
// leaving other coordinates untouched. dst must have the original length.
func (s *SparseVec) PasteInto(dst []float32) {
	if len(dst) != s.N {
		panic(fmt.Sprintf("tensor: PasteInto length %d, want %d", len(dst), s.N))
	}
	for i, j := range s.Indices {
		dst[j] = s.Values[i]
	}
}

// Densify returns a dense vector with stored values and zeros elsewhere.
func (s *SparseVec) Densify() []float32 {
	out := make([]float32, s.N)
	s.PasteInto(out)
	return out
}

// DensifyInto densifies into dst, reusing its storage when the capacity
// suffices (dst may be nil). Coordinates not stored are zeroed.
func (s *SparseVec) DensifyInto(dst []float32) []float32 {
	if cap(dst) < s.N {
		dst = make([]float32, s.N)
	}
	dst = dst[:s.N]
	clear(dst)
	for i, j := range s.Indices {
		dst[j] = s.Values[i]
	}
	return dst
}

// Refresh re-reads the values at the stored indices from a dense vector
// (used after fine-tuning the retained weights).
func (s *SparseVec) Refresh(w []float32) {
	if len(w) != s.N {
		panic(fmt.Sprintf("tensor: Refresh length %d, want %d", len(w), s.N))
	}
	for i, j := range s.Indices {
		s.Values[i] = w[j]
	}
}

// reserve grows the index/value storage to capacity k, keeping length 0.
func (s *SparseVec) reserve(k int) {
	if cap(s.Indices) < k {
		s.Indices = make([]int32, 0, k)
	}
	if cap(s.Values) < k {
		s.Values = make([]float32, 0, k)
	}
	s.Indices = s.Indices[:0]
	s.Values = s.Values[:0]
}

// GatherMask builds (into dst, reused when non-nil) the sparse view of w at
// the mask's true coordinates — the bridge from the prune masks the knowledge
// extractor already computes to a wire-ready sparse update. len(mask) must
// equal len(w).
func GatherMask(dst *SparseVec, w []float32, mask []bool) *SparseVec {
	if len(mask) != len(w) {
		panic(fmt.Sprintf("tensor: GatherMask mask length %d, want %d", len(mask), len(w)))
	}
	if dst == nil {
		dst = &SparseVec{}
	}
	k := 0
	for _, use := range mask {
		if use {
			k++
		}
	}
	dst.N = len(w)
	dst.reserve(k)
	for i, use := range mask {
		if use {
			dst.Indices = append(dst.Indices, int32(i))
			dst.Values = append(dst.Values, w[i])
		}
	}
	return dst
}

// GatherNonzeros builds (into dst, reused when non-nil) the sparse view of
// w's nonzero coordinates. Negative zero counts as zero.
func GatherNonzeros(dst *SparseVec, w []float32) *SparseVec {
	if dst == nil {
		dst = &SparseVec{}
	}
	k := 0
	for _, v := range w {
		if v != 0 {
			k++
		}
	}
	dst.N = len(w)
	dst.reserve(k)
	for i, v := range w {
		if v != 0 {
			dst.Indices = append(dst.Indices, int32(i))
			dst.Values = append(dst.Values, v)
		}
	}
	return dst
}

// sparseParMin is the stored-coordinate count above which the sparse kernels
// fan out over the shared kernel pool; below it the parallel dispatch costs
// more than the arithmetic.
const sparseParMin = 1 << 15

// AxpySparse computes dst += a·x over only x's stored coordinates, skipping
// the zeros a dense Axpy would multiply through. Indices are strictly
// ascending and unique, so chunks write disjoint coordinates and the result
// is bitwise identical for every thread count.
func AxpySparse(dst []float32, a float32, x *SparseVec) {
	if len(dst) != x.N {
		panic(fmt.Sprintf("tensor: AxpySparse length %d, want %d", len(dst), x.N))
	}
	k := len(x.Indices)
	if k >= sparseParMin {
		Parallel(k, func(lo, hi int) { axpySparseRange(dst, a, x, lo, hi) })
		return
	}
	axpySparseRange(dst, a, x, 0, k)
}

func axpySparseRange(dst []float32, a float32, x *SparseVec, lo, hi int) {
	idx, val := x.Indices[lo:hi], x.Values[lo:hi]
	for len(idx) >= 4 {
		dst[idx[0]] += a * val[0]
		dst[idx[1]] += a * val[1]
		dst[idx[2]] += a * val[2]
		dst[idx[3]] += a * val[3]
		idx, val = idx[4:], val[4:]
	}
	for i, j := range idx {
		dst[j] += a * val[i]
	}
}

// ScaleAddSparse computes dst[j] = s·dst[j] + a·x[j] at x's stored
// coordinates — the fused scale-and-accumulate a server-side momentum or
// sharded partial-merge step needs, touching only the active knowledge.
func ScaleAddSparse(dst []float32, s, a float32, x *SparseVec) {
	if len(dst) != x.N {
		panic(fmt.Sprintf("tensor: ScaleAddSparse length %d, want %d", len(dst), x.N))
	}
	k := len(x.Indices)
	if k >= sparseParMin {
		Parallel(k, func(lo, hi int) { scaleAddSparseRange(dst, s, a, x, lo, hi) })
		return
	}
	scaleAddSparseRange(dst, s, a, x, 0, k)
}

func scaleAddSparseRange(dst []float32, s, a float32, x *SparseVec, lo, hi int) {
	idx, val := x.Indices[lo:hi], x.Values[lo:hi]
	for i, j := range idx {
		dst[j] = s*dst[j] + a*val[i]
	}
}

// ScaleIndexed multiplies dst by s at the given coordinates only (ascending,
// unique) — the final FedAvg normalisation over a round's touched-coordinate
// union, costing O(active knowledge) instead of O(model).
func ScaleIndexed(dst []float32, s float32, idx []int32) {
	if len(idx) >= sparseParMin {
		Parallel(len(idx), func(lo, hi int) { scaleIndexedRange(dst, s, idx, lo, hi) })
		return
	}
	scaleIndexedRange(dst, s, idx, 0, len(idx))
}

func scaleIndexedRange(dst []float32, s float32, idx []int32, lo, hi int) {
	for _, j := range idx[lo:hi] {
		dst[j] *= s
	}
}

// SearchInt32 returns the smallest i with a[i] >= v (len(a) when none), by
// binary search over a strictly-ascending list — how a sharded reducer
// locates its contiguous subrange of a sparse update's index list.
func SearchInt32(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MergeIndices merges two strictly-ascending unique index lists into dst
// (reused, returned), producing their strictly-ascending union — the
// bookkeeping a streaming sparse aggregator keeps so it can normalise and
// clear only the coordinates a round actually touched.
func MergeIndices(dst, a, b []int32) []int32 {
	need := len(a) + len(b)
	if cap(dst) < need {
		dst = make([]int32, need)
	}
	dst = dst[:need]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		if va <= vb {
			dst[k] = va
			i++
			if va == vb {
				j++
			}
		} else {
			dst[k] = vb
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return dst[:k]
}

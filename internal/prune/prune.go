// Package prune implements magnitude-based weight pruning and the sparse
// signature-knowledge store (Eq. 1 of the FedKNOW paper): after a task is
// learned, the top-ρ fraction of weights by absolute value is retained as
// that task's knowledge, the rest is discarded.
package prune

import (
	"fmt"
	"math"

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

// Extract retains the top-ρ fraction of weights by |w| as a SparseStore:
// the top TopK(len(w), ρ) of a (|w| descending, index ascending) order,
// NaN ranking as zero, reported in ascending index order. The selection is
// a radix select on magnitudeKey, so it costs a few linear passes and no
// scratch the size of w.
func Extract(w []float32, rho float64) *SparseStore {
	return ExtractSegments(w, []int{len(w)}, rho)
}

// magnitudeKey is v's sort key for selection: its IEEE-754 bits with the
// sign cleared, and NaN mapped to 0. For non-negative floats the bit
// patterns order as the values do (+Inf above every finite value), so keys
// order as |v| does; +0 and −0 share key 0, and a NaN ranks with them.
func magnitudeKey(v float32) uint32 {
	k := math.Float32bits(v) &^ (1 << 31)
	if k > 0x7f800000 {
		k = 0
	}
	return k
}

// The key's 31 bits are settled in three digits, most significant first:
// bits 20–30 (keyTop), then 10–19 and 0–9 (keyLow each).
const (
	keyTop = 11
	keyLow = 10
)

// selectInto writes the k largest-magnitude weights of w to idx[:k] and
// vals[:k] in ascending index order, their indices shifted by off. It
// settles the k-th largest key t one digit at a time, each by a histogram
// of that digit over the keys that share the digits already settled, and
// counts the keys above t on the way. It then takes every weight whose key
// is above t, and the first k − greater whose key equals t: those lie
// before cut, so the weights before cut are taken at key ≥ t and the rest
// at key > t. The emit writes each weight to the next free slot and moves
// on from it only if the weight is taken, so it does not branch on the
// data, and it stops at the k-th.
func selectInto(idx []int32, vals []float32, w []float32, off, k int) {
	if k == 0 {
		return
	}
	var top [1 << keyTop]uint32
	for _, v := range w {
		top[magnitudeKey(v)>>(2*keyLow)]++
	}
	t, greater := digitOf(top[:], k)

	var low [1 << keyLow]uint32
	var equal uint32 // keys equal to t, once its last digit is settled
	for shift := keyLow; shift >= 0; shift -= keyLow {
		settled := shift + keyLow
		clear(low[:])
		for _, v := range w {
			if key := magnitudeKey(v); key>>settled == t {
				low[key>>shift&(1<<keyLow-1)]++
			}
		}
		d, above := digitOf(low[:], k-greater)
		t, greater, equal = t<<keyLow|d, greater+above, low[d]
	}

	cut, ties := len(w), k-greater
	if int(equal) > ties {
		for i, v := range w {
			if magnitudeKey(v) == t {
				if ties--; ties == 0 {
					cut = i + 1
					break
				}
			}
		}
	}
	min := t
	for i, n := 0, 0; n < len(idx); i++ {
		if i == cut {
			min = t + 1
		}
		v := w[i]
		idx[n], vals[n] = int32(off+i), v // kept once n steps past it
		if magnitudeKey(v) >= min {
			n++
		}
	}
}

// digitOf returns the highest digit d of histogram h at which the count of
// keys with digit ≥ d reaches k (1 ≤ k ≤ the total count), and the count of
// keys with a digit above d.
func digitOf(h []uint32, k int) (d uint32, above int) {
	for i := len(h) - 1; ; i-- {
		if above+int(h[i]) >= k {
			return uint32(i), above
		}
		above += int(h[i])
	}
}

// ExtractSegments retains the top-ρ fraction of weights *within each
// segment* (one segment per parameter tensor). Layer-wise selection keeps
// every layer's strongest weights, so the pruned network still propagates
// signal; global selection would concentrate on the layers with the largest
// initialisation scale and zero out whole layers. segments must sum to
// len(w).
func ExtractSegments(w []float32, segments []int, rho float64) *SparseStore {
	total, sum := 0, 0
	for _, segLen := range segments {
		total += TopK(segLen, rho)
		sum += segLen
	}
	if sum != len(w) {
		panic(fmt.Sprintf("prune: segments sum %d, want %d", sum, len(w)))
	}
	out := &SparseStore{N: len(w)}
	if total == 0 {
		return out
	}
	out.Indices, out.Values = make([]int32, total), make([]float32, total)
	off, n := 0, 0
	for _, segLen := range segments {
		k := TopK(segLen, rho)
		selectInto(out.Indices[n:n+k], out.Values[n:n+k], w[off:off+segLen], off, k)
		off, n = off+segLen, n+k
	}
	return out
}

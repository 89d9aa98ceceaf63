package tensor

import (
	"math"
	"testing"
)

// randSparse builds an n-length sparse vector with roughly frac·n stored
// coordinates and a dense reference holding the same values.
func randSparse(rng *RNG, n int, frac float64) (*SparseVec, []float32) {
	sv := &SparseVec{N: n}
	dense := make([]float32, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			v := float32(rng.Norm())
			sv.Indices = append(sv.Indices, int32(i))
			sv.Values = append(sv.Values, v)
			dense[i] = v
		}
	}
	return sv, dense
}

func TestAxpySparseMatchesDense(t *testing.T) {
	rng := NewRNG(1)
	for _, n := range []int{0, 1, 7, 1000, sparseParMin + 33} {
		sv, dense := randSparse(rng, n, 0.1)
		got := make([]float32, n)
		want := make([]float32, n)
		for i := range got {
			v := float32(rng.Norm())
			got[i], want[i] = v, v
		}
		AxpySparse(got, 0.5, sv)
		AxpySlice(want, 0.5, dense)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: AxpySparse[%d] = %v, dense %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestAxpySparseDeterministicAcrossThreads(t *testing.T) {
	defer SetKernelThreads(0)
	rng := NewRNG(2)
	n := sparseParMin*4 + 17
	sv, _ := randSparse(rng, n, 0.3)
	base := make([]float32, n)
	for i := range base {
		base[i] = float32(rng.Norm())
	}
	run := func(threads int) []float32 {
		SetKernelThreads(threads)
		dst := append([]float32(nil), base...)
		AxpySparse(dst, 1.25, sv)
		return dst
	}
	ref := run(1)
	for _, threads := range []int{2, 4, 16} {
		got := run(threads)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("threads=%d: [%d] = %v, want %v", threads, i, got[i], ref[i])
			}
		}
	}
}

func TestScaleIndexed(t *testing.T) {
	dst := []float32{1, 2, 3, 4}
	ScaleIndexed(dst, 10, []int32{0, 2})
	want := []float32{10, 2, 30, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestGatherMaskAndNonzeros(t *testing.T) {
	w := []float32{0, 1.5, 0, -2, float32(math.Copysign(0, -1)), 3}
	mask := []bool{false, true, false, true, false, false}
	sv := GatherMask(nil, w, mask)
	if sv.N != 6 || sv.Len() != 2 || sv.Indices[0] != 1 || sv.Indices[1] != 3 ||
		sv.Values[0] != 1.5 || sv.Values[1] != -2 {
		t.Fatalf("GatherMask: %+v", sv)
	}
	// Scratch reuse: a second gather into the same vec must not allocate new
	// slices when capacity suffices.
	idxPtr := &sv.Indices[:1][0]
	GatherMask(sv, w, mask)
	if &sv.Indices[:1][0] != idxPtr {
		t.Fatal("GatherMask reallocated despite sufficient capacity")
	}

	nz := GatherNonzeros(nil, w)
	// -0 counts as zero for value-level sparsity.
	if nz.Len() != 3 || nz.Indices[0] != 1 || nz.Indices[1] != 3 || nz.Indices[2] != 5 {
		t.Fatalf("GatherNonzeros: %+v", nz)
	}
}

func TestSparseVecDensifyRoundTrip(t *testing.T) {
	sv := &SparseVec{N: 4, Indices: []int32{0, 2}, Values: []float32{9, -1}}
	d := sv.Densify()
	want := []float32{9, 0, -1, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Densify[%d] = %v", i, d[i])
		}
	}
	into := sv.DensifyInto(make([]float32, 0, 8))
	for i := range want {
		if into[i] != want[i] {
			t.Fatalf("DensifyInto[%d] = %v", i, into[i])
		}
	}
	sv.Refresh([]float32{7, 0, 8, 0})
	if sv.Values[0] != 7 || sv.Values[1] != 8 {
		t.Fatalf("Refresh: %v", sv.Values)
	}
}

func TestAxpySparseNoAllocs(t *testing.T) {
	defer SetKernelThreads(0)
	SetKernelThreads(1)
	rng := NewRNG(3)
	sv, _ := randSparse(rng, 4096, 0.1)
	dst := make([]float32, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		AxpySparse(dst, 0.5, sv)
		ScaleIndexed(dst, 0.9, sv.Indices)
	})
	if allocs != 0 {
		t.Fatalf("sparse kernels allocate %v per op", allocs)
	}
}

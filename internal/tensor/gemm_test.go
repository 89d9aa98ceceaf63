package tensor

import (
	"fmt"
	"math"
	"testing"
)

// gemmRef is the plain triple loop the optimised kernels are checked against.
func gemmRef(c, a, b []float32, m, k, n int, transA, transB bool) {
	at := func(i, p int) float32 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(at(i, p)) * float64(bt(p, j))
			}
			c[i*n+j] += float32(s)
		}
	}
}

func maxAbsDiff(a, b []float32) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// TestGemmAgainstReference cross-checks the blocked kernel against the naive
// triple loop for every transpose variant, over shapes chosen to hit all the
// edge cases: micro-tile remainders, panel remainders, the small-problem
// direct path, shapes larger than one cache block, and the batch-wide conv
// shapes — n = N·spatial spanning several pack tiles with a partial last one,
// under a k with a 4×4-block remainder (27) and under a tiny k (8).
func TestGemmAgainstReference(t *testing.T) {
	defer SetKernelThreads(0)
	SetKernelThreads(4)
	rng := NewRNG(42)
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {3, 5, 2}, {4, 4, 4}, {5, 9, 6},
		{17, 31, 13}, {32, 144, 256}, {33, 65, 67}, {64, 64, 64},
		{64, 250, 100}, {100, 300, 50}, {8, 1024, 100}, {70, 500, 70},
		{8, 27, 600}, {72, 8, 525},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				name := fmt.Sprintf("m%d_k%d_n%d_tA%v_tB%v", m, k, n, transA, transB)
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				rng.FillNorm(a, 1)
				rng.FillNorm(b, 1)
				// Non-zero initial C exercises the accumulate contract.
				got := make([]float32, m*n)
				want := make([]float32, m*n)
				rng.FillNorm(got, 1)
				copy(want, got)
				Gemm(got, a, b, m, k, n, transA, transB)
				gemmRef(want, a, b, m, k, n, transA, transB)
				if d := maxAbsDiff(got, want); d > 1e-3*math.Sqrt(float64(k)) {
					t.Errorf("%s: max abs diff %g", name, d)
				}
			}
		}
	}
}

// TestGemmFMAFallbackAgree cross-checks the AVX2 micro-kernel against the
// pure-Go loop (they differ only in summation order, so agreement is to
// tolerance). Skipped on machines without the FMA kernel.
func TestGemmFMAFallbackAgree(t *testing.T) {
	if !hasDot4 {
		t.Skip("no AVX2+FMA kernel on this machine")
	}
	defer func() { hasDot4 = true }()
	rng := NewRNG(77)
	for _, sh := range [][3]int{{32, 144, 256}, {33, 65, 67}, {16, 1024, 100}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		for _, transB := range []bool{false, true} {
			hasDot4 = true
			fast := make([]float32, m*n)
			Gemm(fast, a, b, m, k, n, false, transB)
			hasDot4 = false
			slow := make([]float32, m*n)
			Gemm(slow, a, b, m, k, n, false, transB)
			if d := maxAbsDiff(fast, slow); d > 1e-3*math.Sqrt(float64(k)) {
				t.Errorf("m%d k%d n%d tB%v: FMA vs fallback diff %g", m, k, n, transB, d)
			}
		}
	}
}

// TestGemmSparseAgainstReference checks the zero-skipping path used for
// FedKNOW's sparse knowledge models.
func TestGemmSparseAgainstReference(t *testing.T) {
	rng := NewRNG(43)
	m, k, n := 32, 144, 256
	for _, transA := range []bool{false, true} {
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		// ~90 % sparsity, like a ρ=10 % knowledge store.
		for i := range a {
			if rng.Float64() < 0.9 {
				a[i] = 0
			}
		}
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Gemm(got, a, b, m, k, n, transA, false)
		gemmRef(want, a, b, m, k, n, transA, false)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Errorf("sparse transA=%v: max abs diff %g", transA, d)
		}
	}
}

// TestGemmDeterministicAcrossThreads requires bitwise-identical output for
// every kernel-thread setting: the acceptance bar for running the numeric
// substrate under fleet-level parallelism.
func TestGemmDeterministicAcrossThreads(t *testing.T) {
	defer SetKernelThreads(0)
	rng := NewRNG(44)
	shapes := [][3]int{{32, 144, 256}, {64, 576, 1024}, {8, 1024, 100}, {33, 65, 67}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				var ref []float32
				for _, threads := range []int{1, 4, 16} {
					SetKernelThreads(threads)
					c := make([]float32, m*n)
					Gemm(c, a, b, m, k, n, transA, transB)
					if ref == nil {
						ref = c
						continue
					}
					for i := range c {
						if c[i] != ref[i] {
							t.Fatalf("m%d k%d n%d tA%v tB%v: threads=%d diverges at %d: %v vs %v",
								m, k, n, transA, transB, threads, i, c[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelCoversRange checks that Parallel partitions [0, n) exactly once
// for a spread of range sizes and thread settings.
func TestParallelCoversRange(t *testing.T) {
	defer SetKernelThreads(0)
	for _, threads := range []int{1, 2, 3, 8, 64} {
		SetKernelThreads(threads)
		for _, n := range []int{0, 1, 2, 5, 7, 64, 1000} {
			hits := make([]int32, n)
			var mu chanMutex = make(chan struct{}, 1)
			Parallel(n, func(lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
	}
}

type chanMutex chan struct{}

func (m chanMutex) Lock()   { m <- struct{}{} }
func (m chanMutex) Unlock() { <-m }

// TestEnsureReuses checks the scratch-buffer primitive.
func TestEnsureReuses(t *testing.T) {
	a := New(4, 8)
	base := &a.Data[0]
	b := Ensure(a, 2, 16)
	if b != a || &b.Data[0] != base {
		t.Fatal("Ensure must reuse storage when capacity suffices")
	}
	if b.Shape[0] != 2 || b.Shape[1] != 16 {
		t.Fatalf("shape %v", b.Shape)
	}
	c := Ensure(a, 10, 10)
	if len(c.Data) != 100 {
		t.Fatalf("grown len %d", len(c.Data))
	}
	if d := Ensure(nil, 3, 3); d == nil || len(d.Data) != 9 {
		t.Fatal("Ensure(nil) must allocate")
	}
}

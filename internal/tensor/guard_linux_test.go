package tensor

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s whose last element is the last four bytes
// before an inaccessible page, so that a read or write one byte past the
// slice faults instead of passing unnoticed.
func guarded(t *testing.T, n int) []float32 {
	page := syscall.Getpagesize()
	size := (4*n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap in a test
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	end := size - page
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[end-4*n])), n)
}

// TestGemmStaysInsideOperands runs the AVX2 kernels with every operand flush
// against a guard page: the tile kernel loads sixteen floats a row and four
// rows a strip, so an edge tile that was not masked (or a row alias that
// was not clamped) would run off the end of c, a or b here and fault.
func TestGemmStaysInsideOperands(t *testing.T) {
	pinKernelThreads(t, 1)
	rng := NewRNG(49)
	for _, sh := range convShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, c := guarded(t, m*k), guarded(t, k*n), guarded(t, m*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		for _, transA := range []bool{false, true} {
			want := make([]float32, m*n)
			gemmRef(want, a, b, m, k, n, transA, false)
			clear(c)
			Gemm(c, a, b, m, k, n, transA, false)
			if d := maxAbsDiff(c, want); d > 1e-3*math.Sqrt(float64(k)) {
				t.Errorf("m%d k%d n%d tA%v: max abs diff %g", m, k, n, transA, d)
			}
			for i := range a { // the zero-skipping route and its row primitive
				if i%10 != 0 {
					a[i] = 0
				}
			}
			clear(want)
			gemmRef(want, a, b, m, k, n, transA, false)
			clear(c)
			Gemm(c, a, b, m, k, n, transA, false)
			if d := maxAbsDiff(c, want); d > 1e-3*math.Sqrt(float64(k)) {
				t.Errorf("sparse m%d k%d n%d tA%v: max abs diff %g", m, k, n, transA, d)
			}
			rng.FillNorm(a, 1)
		}
	}
}

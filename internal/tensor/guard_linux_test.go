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
	// AddTransposed's 8×8 blocks load eight floats a row of src and add eight
	// a row of dst: its last block ends flush with both.
	for _, sh := range [][2]int{{16, 24}, {13, 17}, {576, 64}} {
		m, n := sh[0], sh[1]
		src, dst := guarded(t, m*n), guarded(t, n*m)
		rng.FillNorm(src, 1)
		want := make([]float32, n*m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want[j*m+i] = src[i*n+j]
			}
		}
		clear(dst)
		AddTransposed(dst, m, src, m, n)
		if d := maxAbsDiff(dst, want); d != 0 {
			t.Errorf("transpose m%d n%d: max abs diff %g", m, n, d)
		}
	}
}

// TestLoweringStaysInsideOperands runs Im2Col and Col2Im with the batch and
// the matrix each flush against a guard page, on both inner loops: the
// plane-shift run ends at the plane's last pixel when the tap is the window's
// last, and the row add's masked tail and the strided loop's last tap are the
// other places a read or write one float too far would land.
func TestLoweringStaysInsideOperands(t *testing.T) {
	pinKernelThreads(t, 1)
	for _, g := range []convGeom{
		{3, 2, 5, 7, 3, 1, 1, 0, 2}, // 'same': plane shift
		{3, 2, 5, 7, 3, 2, 1, 0, 2}, // strided: row loop
	} {
		x, cols := guarded(t, g.batchLen()), guarded(t, g.matrixLen())
		dx, dcols := guarded(t, g.batchLen()), guarded(t, g.matrixLen())
		rng := NewRNG(50)
		rng.FillNorm(x, 1)
		rng.FillNorm(dcols, 1)
		wantCols, wantDx := make([]float32, len(cols)), make([]float32, len(dx))
		g.forEachSlot(0, g.c, func(slot, pixel int) {
			if pixel >= 0 {
				wantCols[slot] = x[pixel]
				wantDx[pixel] += dcols[slot]
			}
		})
		g.lowerOver(cols, x)
		sameBits(t, "cols", g, cols, wantCols)
		g.raiseOver(dx, dcols)
		sameBits(t, "dx", g, dx, wantDx)

		// Lowering into slots: a matrix of the second channel alone, flush
		// against the page, must hold its rows of the full one and be all
		// the routine writes. Raising under a mask: every third row is NaN
		// and masked out, so reading one would poison its plane.
		outH, outW := g.outSize()
		chans := []int{1}
		rowLen := g.matrixLen() / (g.c * g.k * g.k)
		slots := guarded(t, len(chans)*g.k*g.k*rowLen)
		Im2Col(slots, x, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, chans, 0, len(chans))
		for s, ch := range chans {
			sameBits(t, "slot", g, slots[s*g.k*g.k*rowLen:(s+1)*g.k*g.k*rowLen], wantCols[ch*g.k*g.k*rowLen:(ch+1)*g.k*g.k*rowLen])
		}
		rng.FillNorm(dcols, 1)
		mask := make([]bool, g.c*g.k*g.k)
		for r := range mask {
			mask[r] = r%3 != 0
			if !mask[r] {
				for j := range dcols[r*rowLen : (r+1)*rowLen] {
					dcols[r*rowLen+j] = float32(math.NaN())
				}
			}
		}
		clear(wantDx)
		g.forEachSlot(0, g.c, func(slot, pixel int) {
			if pixel >= 0 && mask[slot/rowLen] {
				wantDx[pixel] += dcols[slot]
			}
		})
		Col2Im(dx, dcols, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, 0, g.c, mask)
		sameBits(t, "masked dx", g, dx, wantDx)
	}
}

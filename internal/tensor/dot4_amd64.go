//go:build amd64

package tensor

// dot4fma computes four simultaneous dot products of a against b0..b3 over
// n float32s (n must be a multiple of 8, n >= 8) using AVX2 FMA, writing the
// four sums into out. Implemented in dot4_amd64.s.
//
//go:noescape
func dot4fma(a, b0, b1, b2, b3 *float32, n int, out *[4]float32)

// gemmOuterFMA accumulates the mr × nc block C += op(A) × B, 1 <= mr <= 4 and
// nc >= 1, as 4×16 register tiles: c and b point at the block's first column
// in matrices of leading dimension ld, and op(A)[i][p] is a[i*ars+p*aps].
// Every element is one fused multiply-add chain over p = 0..k-1 onto the
// incoming C value. Implemented in dot4_amd64.s.
//
//go:noescape
func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int)

// gemmOuterHalfFMA is gemmOuterFMA for a block of exactly eight rows and
// nc <= 8 columns, held one register a row: the same chain per element.
// Implemented in dot4_amd64.s.
//
//go:noescape
func gemmOuterHalfFMA(c, a, b *float32, ld, ars, aps, k, nc int)

// axpyFMA computes c[j] = fma(av, b[j], c[j]) for j < n: one step of
// gemmOuterFMA's chain for one row. Implemented in dot4_amd64.s.
//
//go:noescape
func axpyFMA(c, b *float32, av float32, n int)

// addT8 adds the transposes of nblk 8×8 blocks of an eight-row strip of src
// (rows lds floats apart) into dst (rows ld floats apart): the block at
// column 8b of the strip lands on rows 8b… of dst. Implemented in
// dot4_amd64.s.
//
//go:noescape
func addT8(dst *float32, ld int, src *float32, lds, nblk int)

// cpuidex executes CPUID with the given leaf/subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE).
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// hasDot4 reports whether the AVX2+FMA micro-kernels are usable: the CPU must
// support FMA3 and AVX2 and the OS must have enabled YMM state. Detected
// once at startup; the pure-Go kernels remain the fallback everywhere else.
var hasDot4 = func() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// OS must enable XMM+YMM state saving.
	if xa, _ := xgetbv0(); xa&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0 // AVX2
}()

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
// incoming C value — or, with write set, onto +0, C being only stored
// (C = op(A) × B). Implemented in dot4_amd64.s.
//
//go:noescape
func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int, write bool)

// gemmOuterHalfFMA is gemmOuterFMA for a block of exactly eight rows and
// nc <= 8 columns, held one register a row: the same chain per element.
// Implemented in dot4_amd64.s.
//
//go:noescape
func gemmOuterHalfFMA(c, a, b *float32, ld, ars, aps, k, nc int, write bool)

// gemmOuter512 is gemmOuterFMA at 512 bits, as 4×32 register tiles: the
// same arguments, the same chain per element. Only called where hasAVX512.
// Implemented in dot4_amd64.s.
//
//go:noescape
func gemmOuter512(c, a, b *float32, ld, ars, aps, k, mr, nc int, write bool)

// gemmOuter512H is gemmOuterHalfFMA at 512 bits, for a block of exactly eight
// rows and nc <= 16 columns held one register a row: the same chain per
// element. Only called where hasAVX512. Implemented in dot4_amd64.s.
//
//go:noescape
func gemmOuter512H(c, a, b *float32, ld, ars, aps, k, nc int, write bool)

// axpyFMA computes c[j] = fma(av, b[j], c[j]) for j < n: one step of
// gemmOuterFMA's chain for one row. Implemented in dot4_amd64.s.
//
//go:noescape
func axpyFMA(c, b *float32, av float32, n int)

// maskCopyAVX writes dst[j] = src[j] & mask[(q+j) mod period] for j < n: a
// plane-shift row of Im2Col, each slot written once. mask holds period + 32
// entries and 32 <= period; dst and src do not overlap. Implemented in
// dot4_amd64.s.
//
//go:noescape
func maskCopyAVX(dst, src *float32, mask *uint32, n, q, period int)

// maskAddAVX adds src[j] & mask[(q+j) mod period] onto dst[j] for j < n, one
// float32 add each: a plane-shift row of Col2Im, src only read. The mask is as
// for maskCopyAVX. Implemented in dot4_amd64.s.
//
//go:noescape
func maskAddAVX(dst, src *float32, mask *uint32, n, q, period int)

// planLowerAVX writes dst[j] for j < n from src through a gather plan's
// lowering vectors (eight int32 offsets into src a vector), a lane of −1
// writing +0: a channel's block of Im2Col's matrix. Implemented in
// dot4_amd64.s.
//
//go:noescape
func planLowerAVX(dst, src *float32, lower *int32, n int)

// planRaiseAVX writes a channel's n pixels through a gather plan's raising
// table: block b of 8 pixels is the sum, onto +0 in vector order, of its
// vectors [ends[b−1], ends[b]) of raise read from src (as for planLowerAVX)
// whose tap t has live[t]. Implemented in dot4_amd64.s.
//
//go:noescape
func planRaiseAVX(dst, src *float32, ends, taps, raise *int32, live *bool, n int)

// addT8 adds the transposes of nblk 8×8 blocks of an eight-row strip of src
// (rows lds floats apart) into dst (rows ld floats apart): the block at
// column 8b of the strip lands on rows 8b… of dst. Implemented in
// dot4_amd64.s.
//
//go:noescape
func addT8(dst *float32, ld int, src *float32, lds, nblk int)

// copyT8 writes the transposes of nblk 8×8 blocks of eight rows (rows[j]
// points at row j's first float) into dst (rows ld floats apart): float p of
// block b of row j lands at dst[(8b+p)·ld + j]. Implemented in dot4_amd64.s.
//
//go:noescape
func copyT8(dst *float32, ld int, rows *[8]*float32, nblk int)

// gramTri adds to acc every product rows[i]·rows[j], j <= i < m
// (1 <= m <= 4), over n floats (a positive multiple of 4), as Gram's four
// lanes a product, i-major. Implemented in dot4_amd64.s.
//
//go:noescape
func gramTri(acc *float64, rows *[4]*float32, m, n int)

// gramRect adds to acc every product b[i]·a[j], i < nb (1 <= nb <= 2),
// j < 4, over n floats (a positive multiple of 4), as Gram's four lanes a
// product, i-major. Implemented in dot4_amd64.s.
//
//go:noescape
func gramRect(acc *float64, a *[4]*float32, b *[2]*float32, nb, n int)

// axpyRowsAVX writes dst[p] = x[p] + Σᵢ coef[i]·rows[i][p] for p < n (a
// positive multiple of 8), each product rounded before its add, rows in
// order, then multiplied by scale when scaled: AxpyRows' arithmetic. rows
// points at k slice headers. Implemented in dot4_amd64.s.
//
//go:noescape
func axpyRowsAVX(dst, x *float32, rows *[]float32, coef *float32, k, n int, scale float32, scaled bool)

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

// hasAVX512 reports whether the 512-bit outer-product tiles are usable on top
// of the AVX2 kernels: the CPU must support AVX512F and the OS must have
// enabled the opmask and ZMM state (XCR0 bits 5–7, besides SSE and AVX
// state). Detected once at startup.
var hasAVX512 = hasDot4 && func() bool {
	_, b7, _, _ := cpuidex(7, 0)
	xa, _ := xgetbv0()
	return b7&(1<<16) != 0 && xa&0xe6 == 0xe6
}()

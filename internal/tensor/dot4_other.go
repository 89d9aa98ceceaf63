//go:build !amd64

package tensor

var hasDot4, hasAVX512 = false, false

// The AVX2 kernels are never called on non-amd64 builds (hasDot4 is false).

func dot4fma(a, b0, b1, b2, b3 *float32, n int, out *[4]float32) {
	panic("tensor: dot4fma without hardware support")
}

func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int, write bool) {
	panic("tensor: gemmOuterFMA without hardware support")
}

func gemmOuterHalfFMA(c, a, b *float32, ld, ars, aps, k, nc int, write bool) {
	panic("tensor: gemmOuterHalfFMA without hardware support")
}

func gemmOuter512(c, a, b *float32, ld, ars, aps, k, mr, nc int, write bool) {
	panic("tensor: gemmOuter512 without hardware support")
}

func gemmOuter512H(c, a, b *float32, ld, ars, aps, k, nc int, write bool) {
	panic("tensor: gemmOuter512H without hardware support")
}

func axpyFMA(c, b *float32, av float32, n int) {
	panic("tensor: axpyFMA without hardware support")
}

func maskCopyAVX(dst, src *float32, mask *uint32, n, q, period int) {
	panic("tensor: maskCopyAVX without hardware support")
}

func maskAddAVX(dst, src *float32, mask *uint32, n, q, period int) {
	panic("tensor: maskAddAVX without hardware support")
}

func planLowerAVX(dst, src *float32, lower *int32, n int) {
	panic("tensor: planLowerAVX without hardware support")
}

func planRaiseAVX(dst, src *float32, ends, taps, raise *int32, live *bool, n int) {
	panic("tensor: planRaiseAVX without hardware support")
}

func addT8(dst *float32, ld int, src *float32, lds, nblk int) {
	panic("tensor: addT8 without hardware support")
}

func copyT8(dst *float32, ld int, rows *[8]*float32, nblk int) {
	panic("tensor: copyT8 without hardware support")
}

func gramTri(acc *float64, rows *[4]*float32, m, n int) {
	panic("tensor: gramTri without hardware support")
}

func gramRect(acc *float64, a *[4]*float32, b *[2]*float32, nb, n int) {
	panic("tensor: gramRect without hardware support")
}

func axpyRowsAVX(dst, x *float32, rows *[]float32, coef *float32, k, n int, scale float32, scaled bool) {
	panic("tensor: axpyRowsAVX without hardware support")
}

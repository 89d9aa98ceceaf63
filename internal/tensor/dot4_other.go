//go:build !amd64

package tensor

var hasDot4 = false

// The AVX2 kernels are never called on non-amd64 builds (hasDot4 is false).

func dot4fma(a, b0, b1, b2, b3 *float32, n int, out *[4]float32) {
	panic("tensor: dot4fma without hardware support")
}

func gemmOuterFMA(c, a, b *float32, ld, ars, aps, k, mr, nc int) {
	panic("tensor: gemmOuterFMA without hardware support")
}

func gemmOuterHalfFMA(c, a, b *float32, ld, ars, aps, k, nc int) {
	panic("tensor: gemmOuterHalfFMA without hardware support")
}

func axpyFMA(c, b *float32, av float32, n int) {
	panic("tensor: axpyFMA without hardware support")
}

func addT8(dst *float32, ld int, src *float32, lds, nblk int) {
	panic("tensor: addT8 without hardware support")
}

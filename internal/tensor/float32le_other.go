//go:build !amd64

package tensor

// The AVX2 run kernels are never called on non-amd64 builds (hasDot4 is
// false); float32le.go's Go loops move every coordinate.

func putF32sAVX(dst *byte, src *float32, n int) int {
	panic("tensor: putF32sAVX without hardware support")
}

func getF32sAVX(dst *float32, src *byte, n int) {
	panic("tensor: getF32sAVX without hardware support")
}

func axpyLEAVX(dst *float32, src *byte, n int, a float32) {
	panic("tensor: axpyLEAVX without hardware support")
}

func axpyWriteLEAVX(dst *float32, src *byte, n int, a float32) {
	panic("tensor: axpyWriteLEAVX without hardware support")
}

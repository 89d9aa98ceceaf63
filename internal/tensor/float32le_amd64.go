//go:build amd64

package tensor

// The little-endian float32 run kernels of float32le.go, implemented in
// float32le_amd64.s. Each moves (or folds) n floats, n a positive multiple of
// 8.

//go:noescape
func putF32sAVX(dst *byte, src *float32, n int) int

//go:noescape
func getF32sAVX(dst *float32, src *byte, n int)

//go:noescape
func axpyLEAVX(dst *float32, src *byte, n int, a float32)

//go:noescape
func axpyWriteLEAVX(dst *float32, src *byte, n int, a float32)

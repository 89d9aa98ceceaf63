//go:build amd64

package tensor

// The per-element kernels of elementwise.go and of tensor.go's AxpySlice,
// AxpyWriteSlice and ScaleSlice, implemented in elementwise_amd64.s. Each
// runs n elements, n a positive multiple of 8, with the arithmetic of its Go
// loop: no fused multiply-add, the operations in the loop's order.

//go:noescape
func bnNormAVX(xhat, y, x *float32, n int, mean, invStd, gamma, beta float64)

//go:noescape
func scaleShiftAVX(y, x *float32, n int, scale, shift float64)

//go:noescape
func bnGradAVX(dx, dy, xhat *float32, n int, a, meanDy, meanDyXHat float64)

//go:noescape
func reluAVX(y, x *float32, n int)

//go:noescape
func reluGradAVX(dx, dy, y *float32, n int)

//go:noescape
func addAVX(dst, a, b *float32, n int)

//go:noescape
func axpyAVX(dst, x *float32, n int, a float32)

//go:noescape
func axpyWriteAVX(dst, x *float32, n int, a float32)

//go:noescape
func scaleAVX(dst *float32, n int, s float32)

//go:noescape
func sgdAVX(w, grad *float32, n int, lr, decay float32)

//go:noescape
func sgdMomentumAVX(w, v, grad *float32, n int, lr, decay, momentum float32)

//go:noescape
func sgdMaskedAVX(w, grad *float32, mask *bool, n int, lr, decay float32)

//go:noescape
func rowSums8AVX(acc *[8]float64, x *float32, run, n int)

//go:noescape
func rowSqDev8AVX(acc *[8]float64, x *float32, mean *[8]float64, run, n int)

//go:noescape
func gradSums8AVX(sumDy, sumDyXHat *[8]float64, dy, xhat *float32, run, n int)

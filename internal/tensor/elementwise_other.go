//go:build !amd64

package tensor

// The AVX2 per-element kernels are never called on non-amd64 builds (hasDot4
// is false); elementwise.go's Go loops run every element.

func bnNormAVX(xhat, y, x *float32, n int, mean, invStd, gamma, beta float64) {
	panic("tensor: bnNormAVX without hardware support")
}

func scaleShiftAVX(y, x *float32, n int, scale, shift float64) {
	panic("tensor: scaleShiftAVX without hardware support")
}

func bnGradAVX(dx, dy, xhat *float32, n int, a, meanDy, meanDyXHat float64) {
	panic("tensor: bnGradAVX without hardware support")
}

func reluAVX(y, x *float32, n int) {
	panic("tensor: reluAVX without hardware support")
}

func reluGradAVX(dx, dy, y *float32, n int) {
	panic("tensor: reluGradAVX without hardware support")
}

func addAVX(dst, a, b *float32, n int) {
	panic("tensor: addAVX without hardware support")
}

func axpyAVX(dst, x *float32, n int, a float32) {
	panic("tensor: axpyAVX without hardware support")
}

func axpyWriteAVX(dst, x *float32, n int, a float32) {
	panic("tensor: axpyWriteAVX without hardware support")
}

func scaleAVX(dst *float32, n int, s float32) {
	panic("tensor: scaleAVX without hardware support")
}

func sgdAVX(w, grad *float32, n int, lr, decay float32) {
	panic("tensor: sgdAVX without hardware support")
}

func sgdMomentumAVX(w, v, grad *float32, n int, lr, decay, momentum float32) {
	panic("tensor: sgdMomentumAVX without hardware support")
}

func sgdMaskedAVX(w, grad *float32, mask *bool, n int, lr, decay float32) {
	panic("tensor: sgdMaskedAVX without hardware support")
}

func rowSums8AVX(acc *[8]float64, x *float32, run, n int) {
	panic("tensor: rowSums8AVX without hardware support")
}

func rowSqDev8AVX(acc *[8]float64, x *float32, mean *[8]float64, run, n int) {
	panic("tensor: rowSqDev8AVX without hardware support")
}

func gradSums8AVX(sumDy, sumDyXHat *[8]float64, dy, xhat *float32, run, n int) {
	panic("tensor: gradSums8AVX without hardware support")
}

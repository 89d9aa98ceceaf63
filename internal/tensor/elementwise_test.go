package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The references below are the scalar loops the per-element kernels replaced
// — BatchNorm2D's passes, ReLU's, the residual add and SGD's steps — as they
// stood, with each product rounded explicitly before the add that consumes it.
// The rounding is a no-op on a build that does not fuse (the loops' own
// bits); on one that does (arm64) it keeps the references unfused, so a
// kernel fallback that the compiler fused fails against them.

func refMoments(mean, variance []float64, x []float32) {
	run := len(x) / len(mean)
	cnt := float64(run)
	for ch := range mean {
		row := x[ch*run : (ch+1)*run]
		var m float64
		for _, v := range row {
			m += float64(v)
		}
		m /= cnt
		var q float64
		for _, v := range row {
			d := float64(v) - m
			q += float64(d * d)
		}
		mean[ch], variance[ch] = m, q/cnt
	}
}

func refNormalize(xhat, y, x []float32, mean, invStd, g, bt float64) {
	for j, v := range x {
		xh := (float64(v) - mean) * invStd
		xhat[j] = float32(xh)
		y[j] = float32(float64(g*xh) + bt)
	}
}

func refScaleShift(y, x []float32, scale, shift float64) {
	for j, v := range x {
		y[j] = float32(float64(scale*float64(v)) + shift)
	}
}

func refGradSums(sumDy, sumDyXHat []float64, dy, xhat []float32) {
	run := len(dy) / len(sumDy)
	for ch := range sumDy {
		var s, p float64
		for j, g := range dy[ch*run : (ch+1)*run] {
			s += float64(g)
			p += float64(float64(g) * float64(xhat[ch*run+j]))
		}
		sumDy[ch], sumDyXHat[ch] = s, p
	}
}

func refBNGrad(dx, dy, xhat []float32, a, meanDy, meanDyXHat float64) {
	for j, g := range dy {
		dx[j] = float32(a * (float64(g) - meanDy - float64(float64(xhat[j])*meanDyXHat)))
	}
}

// refReLU is ReLU's loop as it stood. On amd64 max(v, 0) is bit-exact
// everywhere, a NaN's sign included: the compiler lowers it to MINSS on the
// negated operands, which returns a NaN v with its sign cleared.
func refReLU(y, x []float32) {
	for i, v := range x {
		y[i] = max(v, 0)
	}
}

func refReLUGrad(dx, dy, y []float32) {
	for i, g := range dy {
		gb := math.Float32bits(g)
		if math.Float32bits(y[i]) == 0 {
			gb = 0
		}
		dx[i] = math.Float32frombits(gb)
	}
}

func refAdd(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// refAxpy and refScale are AxpySlice's loop and mergeShard's scale loop as
// they stood.
func refAxpy(dst []float32, a float32, x []float32) {
	for i, v := range x {
		dst[i] += float32(a * v)
	}
}

func refScale(dst []float32, s float32) {
	for i := range dst {
		dst[i] *= s
	}
}

// axpyCoefs are the multipliers AxpySlice and ScaleSlice are checked with:
// both zeros (a·NaN and a·Inf are NaN, a·finite a signed zero), the identity,
// a denormal (products underflow) and an ordinary weight.
var axpyCoefs = []float32{0, float32(math.Copysign(0, -1)), 1, 1e-40, 0.3137}

func refSGD(w, g []float32, lr, decay float32) {
	for j := range w {
		gj := g[j] + float32(decay*w[j])
		w[j] -= float32(lr * gj)
	}
}

func refSGDMomentum(w, v, g []float32, lr, decay, m float32) {
	for j := range w {
		gj := g[j] + float32(decay*w[j])
		v[j] = float32(m*v[j]) + gj
		w[j] -= float32(lr * v[j])
	}
}

func refSGDMasked(w, g []float32, mask []bool, lr, decay float32) {
	for j := range w {
		if mask[j] {
			w[j] -= float32(lr * (g[j] + float32(decay*w[j])))
		}
	}
}

// elementwiseLengths are the lengths the kernels are checked at: every length
// up to four eight-float steps and a tail, and the channel runs of the
// CI-scale ResNet18's BatchNorms at batch 8 (3×3, 12×12 and 16×16 planes).
var elementwiseLengths = func() []int {
	ls := make([]int, 0, 40)
	for n := 0; n <= 33; n++ {
		ls = append(ls, n)
	}
	return append(ls, 63, 72, 1152, 2304)
}()

// specialFloats are the inputs a bit-exact kernel must carry through as its
// loop does: NaNs of both signs and with a payload, signed zeros and
// infinities, denormals, the extremes and values that round on conversion.
var specialFloats = []float32{
	float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7fc12345),
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), -math.Float32frombits(1), 1e-40, -3e-39, math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.1, 16777217,
}

// fillMixed fills x with normal values and, when special, puts one of
// specialFloats at each position with probability 1/4.
func fillMixed(rng *RNG, x []float32, special bool) {
	rng.FillNorm(x, 1)
	if !special {
		return
	}
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = specialFloats[rng.Intn(len(specialFloats))]
		}
	}
}

// requireBits32 fails unless got is want bit for bit. A NaN is held only to
// being a NaN where the kernel does arithmetic (anyNaN): when two NaNs meet in
// an addition or a multiplication, x86 returns the first operand's, and which
// operand is first is the compiler's choice for a commutative operation in
// the scalar loop itself. Every other value, ±0 included, is order-free.
func requireBits32(t *testing.T, what string, got, want []float32, anyNaN bool) {
	t.Helper()
	for i := range want {
		if anyNaN && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d of %d is %v (%#x), the scalar loop gives %v (%#x)",
				what, i, len(want), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// requireBits64 is requireBits32 for the float64 reductions, which are all
// arithmetic.
func requireBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d of %d is %v (%#x), the scalar loop gives %v (%#x)",
				what, i, len(want), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestElementwiseKernelsMatchScalarBitwise holds every per-element kernel to
// the scalar loop it replaced, bit for bit, at every length from 0 to 33 and
// at channel-run lengths, on normal inputs and on inputs laced with NaN, ±0,
// ±Inf and denormals, with the AVX2 forms on and with the gate off. The
// fold's AxpySlice and the merge's ScaleSlice run at every multiplier of
// axpyCoefs. The BatchNorm reductions run 1 to 21 channels, so the
// eight-channel blocks, the channels past them and rows with a tail of one to
// three floats are all covered, and a channel with a special input carries it
// into that channel's statistics and outputs.
func TestElementwiseKernelsMatchScalarBitwise(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		rng := NewRNG(81)
		for _, special := range []bool{false, true} {
			for _, n := range elementwiseLengths {
				name := fmt.Sprintf("n=%d/special=%v", n, special)
				checkBatchNormKernels(t, rng, name, n, special)
				checkFloat32Kernels(t, rng, name, n, special)
			}
		}
	})
}

func checkBatchNormKernels(t *testing.T, rng *RNG, name string, run int, special bool) {
	t.Helper()
	for _, c := range []int{1, 3, 8, 9, 16, 21} {
		what := fmt.Sprintf("%s/c=%d", name, c)
		x, dy := make([]float32, c*run), make([]float32, c*run)
		fillMixed(rng, x, special)
		fillMixed(rng, dy, special)
		mean, variance := make([]float64, c), make([]float64, c)
		wantMean, wantVar := make([]float64, c), make([]float64, c)
		BatchNormMoments(mean, variance, x)
		refMoments(wantMean, wantVar, x)
		requireBits64(t, what+" BatchNormMoments mean", mean, wantMean)
		requireBits64(t, what+" BatchNormMoments variance", variance, wantVar)

		xhat, y := make([]float32, c*run), make([]float32, c*run)
		wantXHat, wantY := make([]float32, c*run), make([]float32, c*run)
		for ch := range c {
			lo, hi := ch*run, (ch+1)*run
			invStd := 1 / math.Sqrt(variance[ch]+1e-5)
			g, bt := rng.Norm(), rng.Norm()
			BatchNormNormalize(xhat[lo:hi], y[lo:hi], x[lo:hi], mean[ch], invStd, g, bt)
			refNormalize(wantXHat[lo:hi], wantY[lo:hi], x[lo:hi], mean[ch], invStd, g, bt)
		}
		requireBits32(t, what+" BatchNormNormalize xhat", xhat, wantXHat, true)
		requireBits32(t, what+" BatchNormNormalize y", y, wantY, true)

		scale, shift := rng.Norm(), rng.Norm()
		ScaleShift(y, x, scale, shift)
		refScaleShift(wantY, x, scale, shift)
		requireBits32(t, what+" ScaleShift", y, wantY, true)

		sumDy, sumDyXHat := make([]float64, c), make([]float64, c)
		wantDy, wantDyXHat := make([]float64, c), make([]float64, c)
		BatchNormGradSums(sumDy, sumDyXHat, dy, xhat)
		refGradSums(wantDy, wantDyXHat, dy, xhat)
		requireBits64(t, what+" BatchNormGradSums sumDy", sumDy, wantDy)
		requireBits64(t, what+" BatchNormGradSums sumDyXHat", sumDyXHat, wantDyXHat)

		dx, wantDx := make([]float32, c*run), make([]float32, c*run)
		for ch := range c {
			lo, hi := ch*run, (ch+1)*run
			a, meanDy, meanDyXHat := rng.Norm(), sumDy[ch]/float64(run), sumDyXHat[ch]/float64(run)
			BatchNormGrad(dx[lo:hi], dy[lo:hi], xhat[lo:hi], a, meanDy, meanDyXHat)
			refBNGrad(wantDx[lo:hi], dy[lo:hi], xhat[lo:hi], a, meanDy, meanDyXHat)
		}
		requireBits32(t, what+" BatchNormGrad", dx, wantDx, true)
	}
}

func checkFloat32Kernels(t *testing.T, rng *RNG, what string, n int, special bool) {
	t.Helper()
	x, g, v := make([]float32, n), make([]float32, n), make([]float32, n)
	fillMixed(rng, x, special)
	fillMixed(rng, g, special)
	fillMixed(rng, v, special)
	got, want := make([]float32, n), make([]float32, n)

	ReLU(got, x)
	refReLU(want, x)
	requireBits32(t, what+" ReLU", got, want, false)
	y := append([]float32(nil), want...)
	ReLUGrad(got, g, y)
	refReLUGrad(want, g, y)
	requireBits32(t, what+" ReLUGrad", got, want, false)

	Add(got, x, g)
	refAdd(want, x, g)
	requireBits32(t, what+" Add", got, want, true)

	for _, a := range axpyCoefs {
		copy(got, v)
		copy(want, v)
		AxpySlice(got, a, x)
		refAxpy(want, a, x)
		requireBits32(t, fmt.Sprintf("%s AxpySlice a=%v", what, a), got, want, true)
		copy(got, x)
		copy(want, x)
		ScaleSlice(got, a)
		refScale(want, a)
		requireBits32(t, fmt.Sprintf("%s ScaleSlice s=%v", what, a), got, want, true)
	}

	const lr, decay, momentum = float32(0.0313), float32(5e-4), float32(0.9)
	for _, dec := range []float32{0, decay} {
		copy(got, x)
		copy(want, x)
		SGDStep(got, g, lr, dec)
		refSGD(want, g, lr, dec)
		requireBits32(t, fmt.Sprintf("%s SGDStep decay=%v", what, dec), got, want, true)

		vel, wantVel := append([]float32(nil), v...), append([]float32(nil), v...)
		copy(got, x)
		copy(want, x)
		SGDMomentumStep(got, vel, g, lr, dec, momentum)
		refSGDMomentum(want, wantVel, g, lr, dec, momentum)
		requireBits32(t, fmt.Sprintf("%s SGDMomentumStep decay=%v velocity", what, dec), vel, wantVel, true)
		requireBits32(t, fmt.Sprintf("%s SGDMomentumStep decay=%v", what, dec), got, want, true)

		mask := make([]bool, n)
		for i := range mask {
			mask[i] = rng.Intn(3) != 0
		}
		copy(got, x)
		copy(want, x)
		SGDStepMasked(got, g, mask, lr, dec)
		refSGDMasked(want, g, mask, lr, dec)
		requireBits32(t, fmt.Sprintf("%s SGDStepMasked decay=%v", what, dec), got, want, true)
	}
}

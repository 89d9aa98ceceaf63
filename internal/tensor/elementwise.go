package tensor

import "math"

// Per-element kernels: the passes of BatchNorm, ReLU, the residual add and
// the SGD step. Each is bit for bit the scalar loop it is written as. The
// AVX2 forms (elementwise_amd64.s, behind hasDot4) run the whole multiples of
// eight (of four, for a reduction) and the Go loop runs the rest, or
// everything where the gate is off.
//
// The Go loops round every product explicitly — float32(a*b), float64(a*b) —
// before the add that consumes it. The Go spec lets a compiler fuse a
// multiply and an add otherwise (Go fuses on arm64; on amd64 it does not, at
// any GOAMD64 level, as of Go 1.24), and the AVX2 forms never fuse, so every
// build computes the same bits.
//
// The BatchNorm reductions keep each channel's sum one serial float64 chain in
// element order. The AVX2 form runs eight channels side by side, one lane
// each (rowSums8AVX and its siblings), which hides the latency of one chain
// behind the others without reassociating any of them; the Go loop finishes
// each chain's last run%4 elements, and runs the channels past the last
// whole eight one at a time.

// BatchNormMoments sets mean[r] and variance[r] to the mean and the biased
// variance of row r of x, which holds len(mean) rows of equal length (the
// channels of a CNHW batch). Per row the mean is the serial float64 sum of
// the row divided by its length, and the variance the serial sum of the
// squared deviations from that mean divided likewise.
func BatchNormMoments(mean, variance []float64, x []float32) {
	c := len(mean)
	if c == 0 {
		return
	}
	variance = variance[:c]
	run := len(x) / c
	cnt := float64(run)
	r := 0
	if n4 := run &^ 3; hasDot4 && n4 > 0 {
		for ; r+8 <= c; r += 8 {
			rows := x[r*run : (r+8)*run]
			var m, q [8]float64
			rowSums8AVX(&m, &rows[0], run, n4)
			for k := range m {
				for _, v := range rows[k*run+n4 : (k+1)*run] {
					m[k] += float64(v)
				}
				m[k] /= cnt
			}
			rowSqDev8AVX(&q, &rows[0], &m, run, n4)
			for k := range q {
				for _, v := range rows[k*run+n4 : (k+1)*run] {
					d := float64(v) - m[k]
					q[k] += float64(d * d)
				}
				mean[r+k], variance[r+k] = m[k], q[k]/cnt
			}
		}
	}
	for ; r < c; r++ {
		row := x[r*run : (r+1)*run]
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
		mean[r], variance[r] = m, q/cnt
	}
}

// BatchNormNormalize writes one channel's training-mode outputs: xh = (x[j] −
// mean)·invStd in float64, xhat[j] = float32(xh) and y[j] = float32(gamma·xh +
// beta).
func BatchNormNormalize(xhat, y, x []float32, mean, invStd, gamma, beta float64) {
	xhat, y = xhat[:len(x)], y[:len(x)]
	lo := 0
	if n8 := len(x) &^ 7; hasDot4 && n8 > 0 {
		bnNormAVX(&xhat[0], &y[0], &x[0], n8, mean, invStd, gamma, beta)
		lo = n8
	}
	for j := lo; j < len(x); j++ {
		xh := (float64(x[j]) - mean) * invStd
		xhat[j] = float32(xh)
		y[j] = float32(float64(gamma*xh) + beta)
	}
}

// ScaleShift writes y[j] = float32(scale·x[j] + shift), the product and sum in
// float64: an evaluation-mode BatchNorm channel.
func ScaleShift(y, x []float32, scale, shift float64) {
	y = y[:len(x)]
	lo := 0
	if n8 := len(x) &^ 7; hasDot4 && n8 > 0 {
		scaleShiftAVX(&y[0], &x[0], n8, scale, shift)
		lo = n8
	}
	for j := lo; j < len(x); j++ {
		y[j] = float32(float64(scale*float64(x[j])) + shift)
	}
}

// BatchNormGradSums sets sumDy[r] to the serial float64 sum of row r of dy
// and sumDyXHat[r] to that of dy[j]·xhat[j] over the row, the rows laid out as
// in BatchNormMoments.
func BatchNormGradSums(sumDy, sumDyXHat []float64, dy, xhat []float32) {
	c := len(sumDy)
	if c == 0 {
		return
	}
	sumDyXHat = sumDyXHat[:c]
	run := len(dy) / c
	xhat = xhat[:len(dy)]
	r := 0
	if n4 := run &^ 3; hasDot4 && n4 > 0 {
		for ; r+8 <= c; r += 8 {
			g, h := dy[r*run:(r+8)*run], xhat[r*run:(r+8)*run]
			var s, p [8]float64
			gradSums8AVX(&s, &p, &g[0], &h[0], run, n4)
			for k := range s {
				for j := k*run + n4; j < (k+1)*run; j++ {
					s[k] += float64(g[j])
					p[k] += float64(float64(g[j]) * float64(h[j]))
				}
				sumDy[r+k], sumDyXHat[r+k] = s[k], p[k]
			}
		}
	}
	for ; r < c; r++ {
		g := dy[r*run : (r+1)*run]
		h := xhat[r*run : (r+1)*run][:len(g)]
		var s, p float64
		for j, v := range g {
			s += float64(v)
			p += float64(float64(v) * float64(h[j]))
		}
		sumDy[r], sumDyXHat[r] = s, p
	}
}

// BatchNormGrad writes one channel's input gradient, in float64:
// dx[j] = float32(a·((dy[j] − meanDy) − xhat[j]·meanDyXHat)).
func BatchNormGrad(dx, dy, xhat []float32, a, meanDy, meanDyXHat float64) {
	dx, xhat = dx[:len(dy)], xhat[:len(dy)]
	lo := 0
	if n8 := len(dy) &^ 7; hasDot4 && n8 > 0 {
		bnGradAVX(&dx[0], &dy[0], &xhat[0], n8, a, meanDy, meanDyXHat)
		lo = n8
	}
	for j := lo; j < len(dy); j++ {
		dx[j] = float32(a * (float64(dy[j]) - meanDy - float64(float64(xhat[j])*meanDyXHat)))
	}
}

// ReLU writes y[j] = max(x[j], 0): x[j] where it is positive and +0 where it
// is ≤ 0 (−0 included). On amd64 the compiler's max is a MINSS sequence on
// the negated operands, which returns a NaN x[j] with its sign bit cleared;
// the AVX2 form, a compare mask, clears it too, so its bits are the loop's.
func ReLU(y, x []float32) {
	y = y[:len(x)]
	lo := 0
	if n8 := len(x) &^ 7; hasDot4 && n8 > 0 {
		reluAVX(&y[0], &x[0], n8)
		lo = n8
	}
	for j := lo; j < len(x); j++ {
		y[j] = max(x[j], 0)
	}
}

// ReLUGrad writes dx[j] = dy[j] where ReLU's output y[j] is non-zero and +0
// where it is +0. ReLU's y is +0, positive or NaN, so y > 0 exactly when its
// bits are non-zero, and the test is on the bits: a select between two
// integers on an integer test, which the compiler lowers to a conditional
// move. A NaN y passes its gradient, as under the comparison y <= 0.
func ReLUGrad(dx, dy, y []float32) {
	dx, y = dx[:len(dy)], y[:len(dy)]
	lo := 0
	if n8 := len(dy) &^ 7; hasDot4 && n8 > 0 {
		reluGradAVX(&dx[0], &dy[0], &y[0], n8)
		lo = n8
	}
	for j := lo; j < len(dy); j++ {
		gb := math.Float32bits(dy[j])
		if math.Float32bits(y[j]) == 0 {
			gb = 0
		}
		dx[j] = math.Float32frombits(gb)
	}
}

// Add writes dst[j] = a[j] + b[j].
func Add(dst, a, b []float32) {
	dst, b = dst[:len(a)], b[:len(a)]
	lo := 0
	if n8 := len(a) &^ 7; hasDot4 && n8 > 0 {
		addAVX(&dst[0], &a[0], &b[0], n8)
		lo = n8
	}
	for j := lo; j < len(a); j++ {
		dst[j] = a[j] + b[j]
	}
}

// SGDStep applies w[j] −= lr·(g[j] + decay·w[j]) in float32, each product
// rounded before its add.
func SGDStep(w, g []float32, lr, decay float32) {
	g = g[:len(w)]
	lo := 0
	if n8 := len(w) &^ 7; hasDot4 && n8 > 0 {
		sgdAVX(&w[0], &g[0], n8, lr, decay)
		lo = n8
	}
	for j := lo; j < len(w); j++ {
		gj := g[j] + float32(decay*w[j])
		w[j] -= float32(lr * gj)
	}
}

// SGDMomentumStep applies v[j] = momentum·v[j] + (g[j] + decay·w[j]), then
// w[j] −= lr·v[j], in float32, each product rounded before its add.
func SGDMomentumStep(w, v, g []float32, lr, decay, momentum float32) {
	v, g = v[:len(w)], g[:len(w)]
	lo := 0
	if n8 := len(w) &^ 7; hasDot4 && n8 > 0 {
		sgdMomentumAVX(&w[0], &v[0], &g[0], n8, lr, decay, momentum)
		lo = n8
	}
	for j := lo; j < len(w); j++ {
		gj := g[j] + float32(decay*w[j])
		v[j] = float32(momentum*v[j]) + gj
		w[j] -= float32(lr * v[j])
	}
}

// SGDStepMasked is SGDStep on the coordinates where mask is true; the others
// are left as they are.
func SGDStepMasked(w, g []float32, mask []bool, lr, decay float32) {
	g, mask = g[:len(w)], mask[:len(w)]
	lo := 0
	if n8 := len(w) &^ 7; hasDot4 && n8 > 0 {
		sgdMaskedAVX(&w[0], &g[0], &mask[0], n8, lr, decay)
		lo = n8
	}
	for j := lo; j < len(w); j++ {
		if mask[j] {
			w[j] -= float32(lr * (g[j] + float32(decay*w[j])))
		}
	}
}

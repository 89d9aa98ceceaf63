package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// bnRef is BatchNorm2D's per-channel loop as it stood before its passes moved
// into internal/tensor's kernels, with each product rounded explicitly before
// the add that consumes it: a no-op on a build that does not fuse, and what
// keeps the reference unfused on one that may (arm64).
type bnRef struct {
	gamma, beta, runMean, runVar []float32
	eps, momentum                float64
	xhat                         []float32
	std                          []float64
	dGamma, dBeta                []float32
}

func (r *bnRef) forward(x []float32, c int, train bool) []float32 {
	run := len(x) / c
	cnt := float64(run)
	y := make([]float32, len(x))
	r.xhat, r.std = make([]float32, len(x)), make([]float64, c)
	for ch := 0; ch < c; ch++ {
		xRow, yRow := x[ch*run:(ch+1)*run], y[ch*run:(ch+1)*run]
		g, bt := float64(r.gamma[ch]), float64(r.beta[ch])
		if !train {
			mean := float64(r.runMean[ch])
			std := math.Sqrt(float64(r.runVar[ch]) + r.eps)
			scale, shift := g/std, bt-g*mean/std
			for j, v := range xRow {
				yRow[j] = float32(float64(scale*float64(v)) + shift)
			}
			continue
		}
		var mean float64
		for _, v := range xRow {
			mean += float64(v)
		}
		mean /= cnt
		var variance float64
		for _, v := range xRow {
			d := float64(v) - mean
			variance += float64(d * d)
		}
		variance /= cnt
		std := math.Sqrt(variance + r.eps)
		r.std[ch] = std
		invStd := 1 / std
		for j, v := range xRow {
			xh := (float64(v) - mean) * invStd
			r.xhat[ch*run+j] = float32(xh)
			yRow[j] = float32(float64(g*xh) + bt)
		}
		m := r.momentum
		r.runMean[ch] = float32(float64((1-m)*float64(r.runMean[ch])) + float64(m*mean))
		r.runVar[ch] = float32(float64((1-m)*float64(r.runVar[ch])) + float64(m*variance))
	}
	return y
}

func (r *bnRef) backward(dout []float32, c int) []float32 {
	run := len(dout) / c
	cnt := float64(run)
	dx := make([]float32, len(dout))
	for ch := 0; ch < c; ch++ {
		dRow, xhRow := dout[ch*run:(ch+1)*run], r.xhat[ch*run:(ch+1)*run]
		var sumDy, sumDyXHat float64
		for j, g := range dRow {
			sumDy += float64(g)
			sumDyXHat += float64(float64(g) * float64(xhRow[j]))
		}
		r.dBeta[ch] += float32(sumDy)
		r.dGamma[ch] += float32(sumDyXHat)
		a := float64(r.gamma[ch]) / r.std[ch]
		meanDy, meanDyXHat := sumDy/cnt, sumDyXHat/cnt
		for j, g := range dRow {
			dx[ch*run+j] = float32(a * (float64(g) - meanDy - float64(float64(xhRow[j])*meanDyXHat)))
		}
	}
	return dx
}

func sameFloat32Bits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d of %d is %v, the scalar loop gives %v", what, i, len(want), got[i], want[i])
		}
	}
}

// TestBatchNormPassesMatchScalarLoops holds BatchNorm2D — two training
// forwards, so the running statistics carry, a backward after each, and an
// evaluation forward — to the per-channel scalar loop it replaced, bit for
// bit, at the CI-scale ResNet18's stage shapes and at channel counts and
// runs that leave remainders for the kernels' Go loops.
func TestBatchNormPassesMatchScalarLoops(t *testing.T) {
	for _, sh := range []struct{ c, n, side int }{{8, 8, 12}, {16, 8, 6}, {64, 8, 2}, {3, 2, 3}, {13, 3, 5}} {
		t.Run(fmt.Sprintf("%dch@%dx%d/N=%d", sh.c, sh.side, sh.side, sh.n), func(t *testing.T) {
			rng := tensor.NewRNG(uint64(40 + sh.c))
			l := bound(NewBatchNorm2D("bn", sh.c), rng)
			rng.FillNorm(l.Gamma.W.Data, 1)
			rng.FillNorm(l.Beta.W.Data, 1)
			ref := &bnRef{
				gamma: l.Gamma.W.Data, beta: l.Beta.W.Data, eps: l.Eps, momentum: l.Momentum,
				runMean: append([]float32(nil), l.RunningMean...), runVar: append([]float32(nil), l.RunningVar...),
				dGamma: make([]float32, sh.c), dBeta: make([]float32, sh.c),
			}
			for step := 0; step < 2; step++ {
				x := tensor.Randn(rng, 1.5, sh.c, sh.n, sh.side, sh.side)
				dout := tensor.Randn(rng, 1, x.Shape...)
				sameFloat32Bits(t, "training forward", l.Forward(x, true).Data, ref.forward(x.Data, sh.c, true))
				sameFloat32Bits(t, "running mean", l.RunningMean, ref.runMean)
				sameFloat32Bits(t, "running variance", l.RunningVar, ref.runVar)
				sameFloat32Bits(t, "dx", l.Backward(dout).Data, ref.backward(dout.Data, sh.c))
				sameFloat32Bits(t, "dgamma", l.Gamma.Grad.Data, ref.dGamma)
				sameFloat32Bits(t, "dbeta", l.Beta.Grad.Data, ref.dBeta)
			}
			x := tensor.Randn(rng, 1, sh.c, sh.n, sh.side, sh.side)
			sameFloat32Bits(t, "evaluation forward", l.Forward(x, false).Data, ref.forward(x.Data, sh.c, false))
		})
	}
}

package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalises each channel of a CNHW batch (C, N, H, W) to zero
// mean and unit variance with learnable scale (gamma) and shift (beta). A
// channel is one contiguous run of N·H·W floats, which every pass reduces and
// normalises in order — image by image, pixel by pixel. During evaluation it
// uses exponential running statistics collected in training.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param

	// The running statistics start at mean 0 and variance 1. Bind provides
	// them as views of the state arena; they are written in place, never
	// reassigned.
	RunningMean []float32
	RunningVar  []float32

	// forward cache
	lastXHat *tensor.Tensor
	lastStd  []float64

	yBuf  *tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewBatchNorm2D declares a batch-norm over c channels with γ = 1 and β = 0;
// Bind gives it storage.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma: declare(name+".gamma", initRule{kind: ones}, c),
		Beta:  declare(name+".beta", initRule{kind: zeros}, c),
	}
}

// Forward normalises per channel.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c := x.Shape[0]
	run := x.Len() / c
	cnt := float64(run)
	b.yBuf = tensor.Ensure(b.yBuf, x.Shape...)
	y := b.yBuf
	if train {
		b.lastXHat = tensor.Ensure(b.lastXHat, x.Shape...)
		if cap(b.lastStd) < c {
			b.lastStd = make([]float64, c)
		}
		b.lastStd = b.lastStd[:c]
		for ch := 0; ch < c; ch++ {
			xRow := x.Data[ch*run : (ch+1)*run]
			var mean float64
			for _, v := range xRow {
				mean += float64(v)
			}
			mean /= cnt
			var variance float64
			for _, v := range xRow {
				d := float64(v) - mean
				variance += d * d
			}
			variance /= cnt
			std := math.Sqrt(variance + b.Eps)
			b.lastStd[ch] = std
			invStd := 1 / std
			g, bt := float64(b.Gamma.W.Data[ch]), float64(b.Beta.W.Data[ch])
			xhRow := b.lastXHat.Data[ch*run : (ch+1)*run]
			yRow := y.Data[ch*run : (ch+1)*run]
			for j, v := range xRow {
				xh := (float64(v) - mean) * invStd
				xhRow[j] = float32(xh)
				yRow[j] = float32(g*xh + bt)
			}
			b.RunningMean[ch] = float32((1-b.Momentum)*float64(b.RunningMean[ch]) + b.Momentum*mean)
			b.RunningVar[ch] = float32((1-b.Momentum)*float64(b.RunningVar[ch]) + b.Momentum*variance)
		}
		return y
	}
	for ch := 0; ch < c; ch++ {
		mean := float64(b.RunningMean[ch])
		std := math.Sqrt(float64(b.RunningVar[ch]) + b.Eps)
		g, bt := float64(b.Gamma.W.Data[ch]), float64(b.Beta.W.Data[ch])
		// y = scale*x + shift with the division hoisted out of the loop.
		scale := g / std
		shift := bt - g*mean/std
		yRow := y.Data[ch*run : (ch+1)*run]
		for j, v := range x.Data[ch*run : (ch+1)*run] {
			yRow[j] = float32(scale*float64(v) + shift)
		}
	}
	return y
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c := dout.Shape[0]
	run := dout.Len() / c
	cnt := float64(run)
	b.dxBuf = tensor.Ensure(b.dxBuf, dout.Shape...)
	dx := b.dxBuf
	for ch := 0; ch < c; ch++ {
		dRow := dout.Data[ch*run : (ch+1)*run]
		xhRow := b.lastXHat.Data[ch*run : (ch+1)*run]
		var sumDy, sumDyXHat float64
		for j, g := range dRow {
			sumDy += float64(g)
			sumDyXHat += float64(g) * float64(xhRow[j])
		}
		b.Beta.Grad.Data[ch] += float32(sumDy)
		b.Gamma.Grad.Data[ch] += float32(sumDyXHat)
		gamma := float64(b.Gamma.W.Data[ch])
		a := gamma / b.lastStd[ch]
		meanDy := sumDy / cnt
		meanDyXHat := sumDyXHat / cnt
		dxRow := dx.Data[ch*run : (ch+1)*run]
		for j, g := range dRow {
			dxRow[j] = float32(a * (float64(g) - meanDy - float64(xhRow[j])*meanDyXHat))
		}
	}
	return dx
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

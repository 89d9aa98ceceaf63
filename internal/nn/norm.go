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

	// per-channel scratch, 2·C long: the batch mean and variance in Forward,
	// the two gradient sums in Backward
	chanStats []float64

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

// Forward normalises per channel. The per-element passes are
// internal/tensor's BatchNorm kernels; the per-channel arithmetic stays here,
// each product rounded before its add.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c := x.Shape[0]
	run := x.Len() / c
	b.yBuf = tensor.Ensure(b.yBuf, x.Shape...)
	y := b.yBuf
	if train {
		b.lastXHat = tensor.Ensure(b.lastXHat, x.Shape...)
		if cap(b.lastStd) < c {
			b.lastStd = make([]float64, c)
		}
		b.lastStd = b.lastStd[:c]
		mean, variance := b.chanPair(c)
		tensor.BatchNormMoments(mean, variance, x.Data)
		m := b.Momentum
		for ch := 0; ch < c; ch++ {
			std := math.Sqrt(variance[ch] + b.Eps)
			b.lastStd[ch] = std
			lo, hi := ch*run, (ch+1)*run
			tensor.BatchNormNormalize(b.lastXHat.Data[lo:hi], y.Data[lo:hi], x.Data[lo:hi],
				mean[ch], 1/std, float64(b.Gamma.W.Data[ch]), float64(b.Beta.W.Data[ch]))
			b.RunningMean[ch] = float32(float64((1-m)*float64(b.RunningMean[ch])) + float64(m*mean[ch]))
			b.RunningVar[ch] = float32(float64((1-m)*float64(b.RunningVar[ch])) + float64(m*variance[ch]))
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
		tensor.ScaleShift(y.Data[ch*run:(ch+1)*run], x.Data[ch*run:(ch+1)*run], scale, shift)
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
	sumDy, sumDyXHat := b.chanPair(c)
	tensor.BatchNormGradSums(sumDy, sumDyXHat, dout.Data, b.lastXHat.Data)
	for ch := 0; ch < c; ch++ {
		b.Beta.Grad.Data[ch] += float32(sumDy[ch])
		b.Gamma.Grad.Data[ch] += float32(sumDyXHat[ch])
		a := float64(b.Gamma.W.Data[ch]) / b.lastStd[ch]
		lo, hi := ch*run, (ch+1)*run
		tensor.BatchNormGrad(dx.Data[lo:hi], dout.Data[lo:hi], b.lastXHat.Data[lo:hi],
			a, sumDy[ch]/cnt, sumDyXHat[ch]/cnt)
	}
	return dx
}

// chanPair returns the per-channel scratch as two vectors c long.
func (b *BatchNorm2D) chanPair(c int) (first, second []float64) {
	if cap(b.chanStats) < 2*c {
		b.chanStats = make([]float64, 2*c)
	}
	return b.chanStats[:c], b.chanStats[c : 2*c]
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

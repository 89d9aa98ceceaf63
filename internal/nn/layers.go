package nn

import (
	"math"

	"repro/internal/tensor"
)

// Layer outputs and input gradients are written into per-layer scratch
// buffers that are reused across iterations: a tensor returned by Forward or
// Backward is valid only until the same method runs again on that layer.
// Every training loop in this repo follows forward → loss → backward →
// step, which consumes each tensor before its buffer is rewritten; anything
// that must outlive the next pass (soft targets, flattened gradients) is
// copied by its producer.

// Linear is a fully connected layer: y = xW^T + b, with x of shape (N, In).
type Linear struct {
	In, Out int
	W       *Param // (Out, In)
	B       *Param // (Out)

	lastX *tensor.Tensor
	flops float64
	yBuf  *tensor.Tensor
	dxBuf *tensor.Tensor
	xView tensor.Tensor
}

// NewLinear builds a Linear layer with Kaiming-uniform initialisation.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	w := tensor.New(out, in)
	bound := math.Sqrt(6.0 / float64(in))
	rng.FillUniform(w.Data, -bound, bound)
	b := tensor.New(out)
	return &Linear{In: in, Out: out, W: NewParam(name+".w", w), B: NewParam(name+".b", b)}
}

// Forward computes the affine map for a batch.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape[0]
	if x.Len() != n*l.In {
		panic("nn: Linear input size mismatch")
	}
	l.xView.Data = x.Data
	l.xView.Shape = append(l.xView.Shape[:0], n, l.In)
	x2 := &l.xView
	l.lastX = x2
	l.yBuf = tensor.Ensure(l.yBuf, n, l.Out)
	y := l.yBuf
	clear(y.Data)
	// y = x × W^T
	tensor.Gemm(y.Data, x2.Data, l.W.W.Data, n, l.In, l.Out, false, true)
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j, b := range l.B.W.Data {
			row[j] += b
		}
	}
	l.flops = 2 * float64(n) * float64(l.In) * float64(l.Out)
	return y
}

// Backward accumulates dW, dB and returns dX.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := dout.Shape[0]
	// dW += dout^T × x  → (Out, In)
	tensor.Gemm(l.W.Grad.Data, dout.Data, l.lastX.Data, l.Out, n, l.In, true, false)
	for i := 0; i < n; i++ {
		row := dout.Data[i*l.Out : (i+1)*l.Out]
		for j, g := range row {
			l.B.Grad.Data[j] += g
		}
	}
	l.dxBuf = tensor.Ensure(l.dxBuf, n, l.In)
	dx := l.dxBuf
	clear(dx.Data)
	// dX = dout × W
	tensor.Gemm(dx.Data, dout.Data, l.W.W.Data, n, l.Out, l.In, false, false)
	return dx
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// FLOPs reports the work of the most recent forward pass.
func (l *Linear) FLOPs() float64 { return l.flops }

// ReLU is max(0, x).
type ReLU struct {
	yBuf  *tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero. Half of a post-BatchNorm activation is
// negative, in no pattern a branch predictor can learn, so the loop selects
// without a jump: max(v, 0) is v for v > 0, +0 for every v <= 0 (−0
// included) and, a NaN having no order, NaN for a NaN v.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.yBuf = tensor.Ensure(r.yBuf, x.Shape...)
	xd := x.Data
	yd := r.yBuf.Data[:len(xd)]
	for i, v := range xd {
		yd[i] = max(v, 0)
	}
	return r.yBuf
}

// Backward zeroes gradients where the input was non-positive. The pass mask
// is recovered from the cached output (y > 0 ⇔ x > 0), so no separate mask
// array is maintained — and from its bits, not a float comparison: Forward's
// y is +0 or positive or NaN, hence y > 0 exactly when its bits are non-zero,
// and a select between two integers on an integer test is one the compiler
// lowers to a conditional move, so this loop has no data-dependent branch
// either. A NaN output (from a NaN input) passes its gradient, as it did under
// the comparison y <= 0.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	r.dxBuf = tensor.Ensure(r.dxBuf, dout.Shape...)
	gd := dout.Data
	yd := r.yBuf.Data[:len(gd)]
	dxd := r.dxBuf.Data[:len(gd)]
	for i, g := range gd {
		gb := math.Float32bits(g)
		if math.Float32bits(yd[i]) == 0 {
			gb = 0
		}
		dxd[i] = math.Float32frombits(gb)
	}
	return r.dxBuf
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// ReLU6 is min(max(0,x),6), used by MobileNetV2.
type ReLU6 struct {
	mask  []bool
	yBuf  *tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewReLU6 returns a ReLU6 activation.
func NewReLU6() *ReLU6 { return &ReLU6{} }

// Forward clamps to [0, 6].
func (r *ReLU6) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.yBuf = tensor.Ensure(r.yBuf, x.Shape...)
	y := r.yBuf
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	yd, mask := y.Data[:len(x.Data)], r.mask[:len(x.Data)]
	for i, v := range x.Data {
		switch {
		case v <= 0:
			yd[i] = 0
			mask[i] = false
		case v >= 6:
			yd[i] = 6
			mask[i] = false
		default:
			yd[i] = v
			mask[i] = true
		}
	}
	return y
}

// Backward passes gradient only through the linear region.
func (r *ReLU6) Backward(dout *tensor.Tensor) *tensor.Tensor {
	r.dxBuf = tensor.Ensure(r.dxBuf, dout.Shape...)
	dx := r.dxBuf
	dxd, mask := dx.Data[:len(dout.Data)], r.mask[:len(dout.Data)]
	for i, g := range dout.Data {
		if mask[i] {
			dxd[i] = g
		} else {
			dxd[i] = 0
		}
	}
	return dx
}

// Params returns nil.
func (r *ReLU6) Params() []*Param { return nil }

// Sigmoid is the logistic activation, used in squeeze-and-excitation gates.
type Sigmoid struct {
	lastY *tensor.Tensor
	dxBuf *tensor.Tensor
}

// NewSigmoid returns a Sigmoid activation.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies 1/(1+e^-x).
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.lastY = tensor.Ensure(s.lastY, x.Shape...)
	y := s.lastY
	yd := y.Data[:len(x.Data)]
	for i, v := range x.Data {
		yd[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return y
}

// Backward multiplies by y(1-y).
func (s *Sigmoid) Backward(dout *tensor.Tensor) *tensor.Tensor {
	s.dxBuf = tensor.Ensure(s.dxBuf, dout.Shape...)
	dx := s.dxBuf
	dxd, yd := dx.Data[:len(dout.Data)], s.lastY.Data[:len(dout.Data)]
	for i, g := range dout.Data {
		y := yd[i]
		dxd[i] = g * y * (1 - y)
	}
	return dx
}

// Params returns nil.
func (s *Sigmoid) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) to (N, C*H*W).
type Flatten struct {
	lastShape []int
	view      tensor.Tensor
	dview     tensor.Tensor
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension. The returned tensor is a
// reused view sharing x's data.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape...)
	n := x.Shape[0]
	f.view.Data = x.Data
	f.view.Shape = append(f.view.Shape[:0], n, x.Len()/n)
	return &f.view
}

// Backward restores the cached input shape (again as a reused view).
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	f.dview.Data = dout.Data
	f.dview.Shape = append(f.dview.Shape[:0], f.lastShape...)
	return &f.dview
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

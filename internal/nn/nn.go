// Package nn implements the neural-network substrate: layers with explicit
// Forward/Backward passes, a parameter registry, and classification losses.
// Together with internal/tensor it replaces the PyTorch stack the FedKNOW
// paper builds on.
//
// Layers are stateful: Forward caches whatever the matching Backward needs,
// so a layer instance must not be shared between concurrently-training
// models. Federated clients each hold their own model; parallelism happens
// across clients, never inside one model.
//
// Layout. Every 4-D activation and gradient a layer takes or returns is CNHW,
// (C, N, H, W): channel-major, one contiguous run of N·H·W floats per
// channel, which is the layout a convolution's GEMM writes and reads.
// GlobalAvgPool, Flatten and the squeeze of SEBlock leave it for the (N, ·)
// rows Linear takes.
package nn

import (
	"math"

	"repro/internal/tensor"
)

// Param is one trainable parameter tensor and its gradient accumulator. A
// layer declares it with a shape and an init rule and no storage; Bind makes
// W.Data and Grad.Data views of the network's arenas, so a layer reads and
// writes them in place and never reassigns them.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	init initRule
}

// initRule is how Bind fills a parameter.
type initRule struct {
	kind  initKind
	scale float64 // normal: the standard deviation; uniform: the bound
}

type initKind uint8

const (
	zeros initKind = iota // the arena's own zeros
	ones
	normal  // N(0, scale²)
	uniform // U[-scale, scale)
)

// kaimingNormal is He initialisation, N(0, 2/fanIn).
func kaimingNormal(fanIn int) initRule {
	return initRule{normal, math.Sqrt(2.0 / float64(fanIn))}
}

// kaimingUniform is U(-√(6/fanIn), √(6/fanIn)).
func kaimingUniform(fanIn int) initRule {
	return initRule{uniform, math.Sqrt(6.0 / float64(fanIn))}
}

// declare returns a parameter of the given shape whose storage Bind provides.
func declare(name string, init initRule, shape ...int) *Param {
	return &Param{Name: name, W: &tensor.Tensor{Shape: shape}, Grad: &tensor.Tensor{Shape: shape}, init: init}
}

// Bind gives net its storage and its initial values, and returns net.Params()
// with the two arenas. state holds every parameter in Params() order followed
// by every BatchNorm2D's RunningMean and RunningVar in Walk order; grads holds
// the gradients in Params() order. Every W.Data, Grad.Data and statistic
// becomes the view of its arena whose capacity ends with it. The inits apply
// in Params() order, drawing from rng. A nil rng means the caller installs
// the weights: nothing is drawn and the drawn parameters stay zero, while the
// constant inits (γ = 1, running variance = 1) still apply.
func Bind(net Layer, rng *tensor.RNG) (params []*Param, state, grads []float32) {
	params = net.Params()
	n := 0
	for _, p := range params {
		n += elems(p.W.Shape)
	}
	size := n
	var bns []*BatchNorm2D
	Walk(net, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			bns = append(bns, bn)
			size += 2 * bn.C
		}
	})
	state, grads = make([]float32, size), make([]float32, n)
	off := 0
	for _, p := range params {
		k := elems(p.W.Shape)
		p.W.Data, p.Grad.Data = capped(state, off, k), capped(grads, off, k)
		off += k
		switch {
		case p.init.kind == ones:
			p.W.Fill(1)
		case rng == nil:
		case p.init.kind == normal:
			rng.FillNorm(p.W.Data, p.init.scale)
		case p.init.kind == uniform:
			rng.FillUniform(p.W.Data, -p.init.scale, p.init.scale)
		}
	}
	for _, bn := range bns {
		bn.RunningMean, bn.RunningVar = capped(state, off, bn.C), capped(state, off+bn.C, bn.C)
		for i := range bn.RunningVar {
			bn.RunningVar[i] = 1
		}
		off += 2 * bn.C
	}
	return params, state, grads
}

// capped is arena[off:off+n], its capacity capped at its length so an append
// cannot run into a neighbour.
func capped(arena []float32, off, n int) []float32 { return arena[off : off+n : off+n] }

func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Layer is a differentiable module. Forward runs the computation (train
// selects training-time behaviour, e.g. batch-norm statistics); Backward
// consumes the gradient w.r.t. the layer output, accumulates parameter
// gradients, and returns the gradient w.r.t. the layer input.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the output gradient through the chain in reverse.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// ParamsOnlyBackward is implemented by layers that can accumulate parameter
// gradients without materialising the input gradient.
type ParamsOnlyBackward interface {
	BackwardParamsOnly(dout *tensor.Tensor)
}

// BackwardDiscardInput back-propagates like Backward but tells the first
// layer that nobody will consume the network input's gradient, letting it
// skip the adjoint-lowering work entirely. It returns nil when the input
// gradient was elided. Use only at the outermost network level, where the
// training loops discard the returned gradient.
func (s *Sequential) BackwardDiscardInput(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 1; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	if len(s.Layers) == 0 {
		return dout
	}
	if first, ok := s.Layers[0].(ParamsOnlyBackward); ok {
		first.BackwardParamsOnly(dout)
		return nil
	}
	return s.Layers[0].Backward(dout)
}

// BackwardParamsOnly is BackwardDiscardInput with the result dropped, which
// makes a Sequential a first layer that can skip its own first layer's input
// gradient: a network whose stem is Sequential(conv, BN) elides the stem
// conv's adjoint lowering.
func (s *Sequential) BackwardParamsOnly(dout *tensor.Tensor) { s.BackwardDiscardInput(dout) }

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar parameters.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.W.Len()
	}
	return n
}

// ZeroGrads clears every gradient accumulator.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// FlattenParams copies all parameter values into a single vector, in order.
func FlattenParams(ps []*Param) []float32 {
	out := make([]float32, 0, NumParams(ps))
	for _, p := range ps {
		out = append(out, p.W.Data...)
	}
	return out
}

// FlattenGrads copies all gradients into a single vector, in order.
func FlattenGrads(ps []*Param) []float32 {
	out := make([]float32, 0, NumParams(ps))
	for _, p := range ps {
		out = append(out, p.Grad.Data...)
	}
	return out
}

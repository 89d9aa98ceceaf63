// Package model is the DNN zoo: the 6-layer CNN and ResNet-18 the paper's
// main evaluation trains (§V-A), plus the eight architectures of the
// applicability study (§V-E) spanning the survey's six categories — depth
// (ResNet-152), multi-path (DenseNet), width (InceptionV3, ResNeXt,
// WideResNet), feature-map exploitation/attention (SENet18), and lightweight
// (MobileNetV2 ×1.0/×2.0, ShuffleNetV2).
//
// Topologies are genuine (residual/bottleneck/dense/inception/grouped/SE/
// inverted-residual/shuffle blocks with the published block counts);
// channel widths are scaled down by a constructor parameter so the pure-Go
// substrate trains them on CPU. See DESIGN.md substitution #4.
package model

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model wraps a network with its metadata and measured per-sample cost.
//
// A model's state lives in two arenas, which nn.Bind builds before any value
// is written: state holds every parameter in Params() order followed by
// every BatchNorm2D's RunningMean and RunningVar in walk order, and grads
// holds the gradients in Params() order. Every Param.W.Data, Param.Grad.Data
// and running statistic is a view of its arena whose capacity ends with it;
// no layer may reassign one.
type Model struct {
	Name       string
	Net        nn.Layer
	NumClasses int
	InC        int
	InH, InW   int

	flopsPerSample float64
	params         []*nn.Param
	in             *tensor.Tensor // the batch as the network takes it, reused

	state, grads []float32
	// Borrow's copy of state, and whether a Borrow is in progress.
	saved    []float32
	borrowed bool
}

// newModel wraps net and binds it into the model's arenas, drawing its
// initial weights from rng; a nil rng draws none (see nn.Bind).
func newModel(name string, net nn.Layer, numClasses, inC, inH, inW int, rng *tensor.RNG) *Model {
	m := &Model{Name: name, Net: net, NumClasses: numClasses, InC: inC, InH: inH, InW: inW}
	m.params, m.state, m.grads = nn.Bind(net, rng)
	return m
}

// Forward runs the network on an NCHW batch (N, InC, H, W). It is the one
// place the layout changes: the batch is transposed once into the CNHW
// buffer the model keeps, and every activation inside the network stays CNHW
// (see package nn) up to the (N, NumClasses) logits.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c := x.Shape[0], x.Shape[1]
	m.in = tensor.Ensure(m.in, c, n, x.Shape[2], x.Shape[3])
	tensor.TransposeBlocks(m.in.Data, x.Data, n, c)
	return m.Net.Forward(m.in, train)
}

// Backward back-propagates an output gradient into the parameters' gradients
// and returns nil: the gradient w.r.t. the network input is not produced
// (every training loop discards it), which lets a first layer that can skip
// its adjoint-lowering work do so.
func (m *Model) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if s, ok := m.Net.(*nn.Sequential); ok {
		s.BackwardDiscardInput(dout)
	} else {
		m.Net.Backward(dout)
	}
	return nil
}

// Params returns the parameters, in arena order.
func (m *Model) Params() []*nn.Param { return m.params }

// Weights is the parameter vector: every parameter in Params() order, a view
// of the state arena. Writing it writes the model.
func (m *Model) Weights() []float32 { return m.state[:len(m.grads):len(m.grads)] }

// Grads is the gradient vector in Params() order, a view of the gradient
// arena.
func (m *Model) Grads() []float32 { return m.grads }

// SetWeights installs w as the parameters. It panics unless w has one value
// per parameter.
func (m *Model) SetWeights(w []float32) { install("SetWeights", m.Weights(), w) }

// SetGrads installs g as the gradients. It panics unless g has one value per
// parameter.
func (m *Model) SetGrads(g []float32) { install("SetGrads", m.grads, g) }

func install(op string, dst, src []float32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("model: %s length %d, the model has %d parameters", op, len(src), len(dst)))
	}
	copy(dst, src)
}

// Borrow lends the live model to fn and then puts back its persistent state
// bit for bit, also when fn panics: the state arena, that is every parameter
// and every BatchNorm2D's RunningMean and RunningVar. fn may install other
// weights and train on them (forwards, backwards, optimiser steps).
// Gradients and layer caches are scratch and are left as fn leaves them. This
// is the one way to run the model at weights other than its own. The copy
// lives on the model, so a warm call allocates nothing; a call from inside fn
// panics.
func (m *Model) Borrow(fn func()) {
	if m.borrowed {
		panic("model: Borrow called inside Borrow")
	}
	m.saved = append(m.saved[:0], m.state...)
	m.borrowed = true
	defer func() {
		copy(m.state, m.saved)
		m.borrowed = false
	}()
	fn()
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return len(m.grads) }

// ParamBytes returns the dense float32 size of the model, the unit of
// federated communication accounting.
func (m *Model) ParamBytes() int { return m.NumParams() * 4 }

// FLOPsPerSample lazily measures the forward cost of one sample by probing
// with a batch of one. Backward is accounted as 2× forward, the standard
// rule of thumb, by the device model.
func (m *Model) FLOPsPerSample() float64 {
	if m.flopsPerSample == 0 {
		m.Forward(tensor.New(1, m.InC, m.InH, m.InW), false)
		m.flopsPerSample = nn.TotalFLOPs(m.Net)
	}
	return m.flopsPerSample
}

// Builder constructs a model for the given class count, input geometry and
// width scale (1 = the package's scaled default width), drawing its initial
// weights from rng. A nil rng draws none and leaves them zero, for a caller
// that installs the weights next.
type Builder func(numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model

var registry = map[string]Builder{}

func register(name string, b Builder) { registry[name] = b }

// Build constructs a registered architecture by name.
func Build(name string, numClasses, inC, inH, inW, width int, rng *tensor.RNG) (*Model, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown architecture %q", name)
	}
	return b(numClasses, inC, inH, inW, width, rng), nil
}

// MustBuild is Build for static names; it panics on unknown architectures.
func MustBuild(name string, numClasses, inC, inH, inW, width int, rng *tensor.RNG) *Model {
	m, err := Build(name, numClasses, inC, inH, inW, width, rng)
	if err != nil {
		panic(err)
	}
	return m
}

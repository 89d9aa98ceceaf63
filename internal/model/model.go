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
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model wraps a network with its metadata and measured per-sample cost.
type Model struct {
	Name       string
	Net        nn.Layer
	NumClasses int
	InC        int
	InH, InW   int

	flopsPerSample float64
	params         []*nn.Param
	in             *tensor.Tensor // the batch as the network takes it, reused

	// Borrow's state: every BatchNorm2D's running mean and variance in walk
	// order (collected by the first call), the copy of the parameters then
	// the statistics, and whether a Borrow is in progress.
	stats    [][]float32
	saved    []float32
	borrowed bool
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

// Params returns the cached parameter list.
func (m *Model) Params() []*nn.Param {
	if m.params == nil {
		m.params = m.Net.Params()
	}
	return m.params
}

// Borrow lends the live model to fn and then puts back its persistent state
// bit for bit, also when fn panics: every parameter and every BatchNorm2D's RunningMean and
// RunningVar. fn may install other weights and train on them (forwards,
// backwards, optimiser steps). Gradients and layer caches are scratch and are
// left as fn leaves them. This is the one way to run the model at weights
// other than its own. The copy lives on the model, so a warm call allocates
// nothing; a call from inside fn panics.
func (m *Model) Borrow(fn func()) {
	if m.borrowed {
		panic("model: Borrow called inside Borrow")
	}
	params := m.Params()
	if m.saved == nil {
		n := m.NumParams()
		nn.Walk(m.Net, func(l nn.Layer) {
			if bn, ok := l.(*nn.BatchNorm2D); ok {
				m.stats = append(m.stats, bn.RunningMean, bn.RunningVar)
				n += len(bn.RunningMean) + len(bn.RunningVar)
			}
		})
		m.saved = make([]float32, n)
	}
	off := len(nn.FlattenParamsInto(m.saved, params))
	for _, s := range m.stats {
		off += copy(m.saved[off:], s)
	}
	m.borrowed = true
	defer func() {
		off := m.NumParams()
		nn.SetFlatParams(params, m.saved[:off])
		for _, s := range m.stats {
			off += copy(s, m.saved[off:])
		}
		m.borrowed = false
	}()
	fn()
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

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
// width scale (1 = the package's scaled default width).
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

// Names lists the registered architectures, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Package opt implements the optimisers and learning-rate schedules used by
// the training stack. Inv is the O(r^-1) decay FedKNOW's §IV proof asks
// of the global weights.
package opt

import (
	"fmt"

	"repro/internal/tensor"
)

// Schedule maps an iteration counter (1-based) to a learning rate.
type Schedule interface {
	LR(iter int) float64
}

// Const is a fixed learning rate.
type Const struct{ Rate float64 }

// LR returns the constant rate.
func (c Const) LR(int) float64 { return c.Rate }

// Inv decays as base / (1 + decay·r): the O(r^-1) schedule Theorem 1
// requires for global weights (ηG ≤ 2/(µ(γ+r))).
type Inv struct {
	Base  float64
	Decay float64
}

// LR returns base/(1+decay·iter), the product rounded before the add so that
// a compiler that fuses (arm64) gives amd64's rate.
func (s Inv) LR(iter int) float64 {
	if iter < 1 {
		iter = 1
	}
	return s.Base / (1 + float64(s.Decay*float64(iter)))
}

// SGD is stochastic gradient descent with optional momentum and weight decay
// over one weight vector (a model's Weights and Grads). The update is
// elementwise, so a coordinate moves the same whatever the vector's layout.
type SGD struct {
	Sched       Schedule
	Momentum    float64
	WeightDecay float64

	iter     int
	velocity []float32
}

// NewSGD returns an optimiser with the given schedule.
func NewSGD(sched Schedule, momentum, weightDecay float64) *SGD {
	return &SGD{Sched: sched, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to the weights w from their gradient g, which must
// have the same length. Gradients are not cleared; callers own nn.ZeroGrads.
// The arithmetic is float32, each product rounded before its add
// (tensor.SGDStep, tensor.SGDMomentumStep).
func (o *SGD) Step(w, g []float32) {
	g = sameLen(w, g)
	o.iter++
	lr, decay := float32(o.Sched.LR(o.iter)), float32(o.WeightDecay)
	if o.Momentum == 0 {
		tensor.SGDStep(w, g, lr, decay)
		return
	}
	if o.velocity == nil {
		o.velocity = make([]float32, len(w))
	}
	tensor.SGDMomentumStep(w, o.velocity[:len(w)], g, lr, decay, float32(o.Momentum))
}

// StepMasked is Step restricted to coordinates where mask is true; a nil
// mask means unrestricted. Used by the knowledge extractor's fine-tuning
// phase (only the retained top-ρ weights move) and by AGS-CL's frozen
// weights.
func (o *SGD) StepMasked(w, g []float32, mask []bool) {
	if mask == nil {
		o.Step(w, g)
		return
	}
	g, mask = sameLen(w, g), mask[:len(w)]
	o.iter++
	tensor.SGDStepMasked(w, g, mask, float32(o.Sched.LR(o.iter)), float32(o.WeightDecay))
}

// sameLen returns g resliced to w's length, panicking unless it has it.
func sameLen(w, g []float32) []float32 {
	if len(g) != len(w) {
		panic(fmt.Sprintf("opt: %d gradients for %d weights", len(g), len(w)))
	}
	return g[:len(w)]
}

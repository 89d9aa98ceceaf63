// Package opt implements the optimisers and learning-rate schedules used by
// the training stack. The schedules mirror the convergence constraints of
// FedKNOW's §IV proof: local weights decay as O(r^-1/2) and global weights
// as O(r^-1).
package opt

import (
	"fmt"
	"math"
)

// Schedule maps an iteration counter (1-based) to a learning rate.
type Schedule interface {
	LR(iter int) float64
}

// Const is a fixed learning rate.
type Const struct{ Rate float64 }

// LR returns the constant rate.
func (c Const) LR(int) float64 { return c.Rate }

// InvSqrt decays as base / sqrt(r): the O(r^-1/2) schedule Theorem 1
// requires for local weights.
type InvSqrt struct{ Base float64 }

// LR returns base/sqrt(iter).
func (s InvSqrt) LR(iter int) float64 {
	if iter < 1 {
		iter = 1
	}
	return s.Base / math.Sqrt(float64(iter))
}

// Inv decays as base / (1 + decay·r): the O(r^-1) schedule Theorem 1
// requires for global weights (ηG ≤ 2/(µ(γ+r))).
type Inv struct {
	Base  float64
	Decay float64
}

// LR returns base/(1+decay·iter).
func (s Inv) LR(iter int) float64 {
	if iter < 1 {
		iter = 1
	}
	return s.Base / (1 + s.Decay*float64(iter))
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

// Iter returns the number of completed steps.
func (o *SGD) Iter() int { return o.iter }

// Reset zeroes the step counter and momentum buffer (used when a new task
// starts and the schedule restarts).
func (o *SGD) Reset() {
	o.iter = 0
	o.velocity = nil
}

// Step applies one update to the weights w from their gradient g, which must
// have the same length. Gradients are not cleared; callers own nn.ZeroGrads.
func (o *SGD) Step(w, g []float32) {
	g = sameLen(w, g)
	o.iter++
	lr := o.Sched.LR(o.iter)
	if o.Momentum == 0 {
		for j := range w {
			gj := g[j] + float32(o.WeightDecay)*w[j]
			w[j] -= float32(lr) * gj
		}
		return
	}
	if o.velocity == nil {
		o.velocity = make([]float32, len(w))
	}
	v := o.velocity[:len(w)]
	m := float32(o.Momentum)
	for j := range w {
		gj := g[j] + float32(o.WeightDecay)*w[j]
		v[j] = m*v[j] + gj
		w[j] -= float32(lr) * v[j]
	}
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
	lr := float32(o.Sched.LR(o.iter))
	for j := range w {
		if mask[j] {
			w[j] -= lr * (g[j] + float32(o.WeightDecay)*w[j])
		}
	}
}

// sameLen returns g resliced to w's length, panicking unless it has it.
func sameLen(w, g []float32) []float32 {
	if len(g) != len(w) {
		panic(fmt.Sprintf("opt: %d gradients for %d weights", len(g), len(w)))
	}
	return g[:len(w)]
}

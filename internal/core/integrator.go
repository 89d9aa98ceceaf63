package core

import (
	"repro/internal/qp"
	"repro/internal/stats"
)

// GradientIntegrator implements §III-D / Eqs. 3–5: given the current task's
// gradient and a set of constraint gradients (signature past tasks, or the
// pre-aggregation gradient during global fine-tuning), it produces the
// minimally-rotated gradient g′ that keeps an acute angle with every
// constraint.
type GradientIntegrator struct {
	// SubsampleN bounds the coordinates used for Wasserstein ranking;
	// full gradients are still used for the QP itself.
	SubsampleN int

	ws qp.Workspace // the QP's buffers, reused across steps
}

// NewGradientIntegrator returns an integrator with the default ranking
// subsample size.
func NewGradientIntegrator() *GradientIntegrator {
	return &GradientIntegrator{SubsampleN: 2048}
}

// SelectSignature ranks candidate gradients by Wasserstein dissimilarity to
// g and returns the indices of the k most dissimilar — the signature tasks
// most endangered by an update along g (§III-C).
func (gi *GradientIntegrator) SelectSignature(g []float32, candidates [][]float32, k int) []int {
	return stats.TopKDissimilar(g, candidates, k, func(a, b []float32) float64 {
		return stats.SubsampledWasserstein(a, b, gi.SubsampleN)
	})
}

// Integrate solves the dual QP and returns g′ = Gᵀv + g. When no constraint
// is violated the input gradient is returned unchanged; otherwise g′ lives in
// a buffer the integrator owns and is valid until the next Integrate call.
func (gi *GradientIntegrator) Integrate(g []float32, constraints [][]float32) []float32 {
	return gi.ws.Integrate(g, constraints)
}

// IntegrateSelected is the per-iteration composite operation: select the k
// most dissimilar candidates, then integrate against exactly those.
func (gi *GradientIntegrator) IntegrateSelected(g []float32, candidates [][]float32, k int) []float32 {
	if len(candidates) == 0 {
		return g
	}
	if k >= len(candidates) {
		return gi.Integrate(g, candidates)
	}
	idx := gi.SelectSignature(g, candidates, k)
	sel := make([][]float32, len(idx))
	for i, j := range idx {
		sel[i] = candidates[j]
	}
	return gi.Integrate(g, sel)
}

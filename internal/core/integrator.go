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

	// SelectSignature's buffers, reused across re-rankings: g's sorted
	// subsample, one candidate's, every candidate's distance, the ranking.
	ref, cand []float32
	dist      []float64
	signature []int
}

// NewGradientIntegrator returns an integrator with the default ranking
// subsample size.
func NewGradientIntegrator() *GradientIntegrator {
	return &GradientIntegrator{SubsampleN: 2048}
}

// SelectSignature ranks candidate gradients by Wasserstein dissimilarity to
// g and returns the indices of the k most dissimilar — the signature tasks
// most endangered by an update along g (§III-C). g's subsample is sorted once
// for all candidates. The result lives in a buffer the integrator owns and
// is valid until the next SelectSignature call.
func (gi *GradientIntegrator) SelectSignature(g []float32, candidates [][]float32, k int) []int {
	gi.ref = stats.SortedSubsample(gi.ref, g, gi.SubsampleN)
	gi.dist = gi.dist[:0]
	for _, c := range candidates {
		if len(c) != len(g) {
			panic("core: SelectSignature gradient length mismatch")
		}
		gi.cand = stats.SortedSubsample(gi.cand, c, gi.SubsampleN)
		gi.dist = append(gi.dist, stats.SortedDistance(gi.ref, gi.cand))
	}
	gi.signature = stats.TopK(gi.signature, gi.dist, k)
	return gi.signature
}

// Integrate solves the dual QP and returns g′ = Gᵀv + g. When no constraint
// is violated the input gradient is returned unchanged; otherwise g′ lives in
// a buffer the integrator owns and is valid until the next Integrate call.
func (gi *GradientIntegrator) Integrate(g []float32, constraints [][]float32) []float32 {
	return gi.ws.Integrate(g, constraints)
}

// Outcome reports what the last Integrate call did — whether the QP fired,
// converged or was degenerate, and ‖g‖², g·g′ and ‖g′‖² — from the solve's
// own algebra, with no pass over the gradients.
func (gi *GradientIntegrator) Outcome() qp.Outcome { return gi.ws.Outcome() }

// Package convergence implements the quantities of the paper's §IV
// convergence analysis: the Lemma 1 bound on local weight training and the
// Lemma 2 / Assumption 3 bound on global (FedAvg) training. Its tests check
// that the bounds decay and grow where the analysis says they do. The Eq. 16
// envelope of the integrated gradient is a property test of package qp.
package convergence

import "math"

// LocalBound evaluates the Lemma 1 upper bound on local-weight training at
// iteration r:
//
//	E[f(W_r)] − f(W*) ≤ D² / (2 η_r r) + λ² η_r / 2
//
// where D bounds the parameter update norm (Assumption 2), λ bounds the
// stochastic gradient norm (Assumption 1) and η_r is the local learning
// rate at iteration r.
func LocalBound(d, lambda, etaR float64, r int) float64 {
	if r < 1 || etaR <= 0 {
		return math.Inf(1)
	}
	return d*d/(2*etaR*float64(r)) + lambda*lambda*etaR/2
}

// GlobalBoundParams carries the constants of Assumption 3 / Lemma 2.
type GlobalBoundParams struct {
	Mu     float64 // strong-convexity constant µ
	L      float64 // smoothness constant L
	Omega  float64 // Γ, the non-IID severity: f* − Σ p_i f_i(W*)
	SigmaP float64 // Σ p_i² σ_i², client gradient-variance term
	Lambda float64 // bound on the squared integrated gradient (Eq. 16)
	DistSq float64 // E‖W_r − W*‖²
}

// GlobalBound evaluates the Lemma 2 upper bound on global-weight training at
// iteration r:
//
//	E[f(W_r)] − f(W*) ≤ τ/(γ+r−1) · (2B/µ + µγ/2 · E‖W_r−W*‖²)
//
// with B = Σp_i²σ_i² + 6LΩ + 8(r−1)²λ², τ = L/µ, γ = max(8τ, r).
func GlobalBound(p GlobalBoundParams, r int) float64 {
	if r < 1 || p.Mu <= 0 {
		return math.Inf(1)
	}
	tau := p.L / p.Mu
	gamma := math.Max(8*tau, float64(r))
	b := p.SigmaP + 6*p.L*p.Omega + 8*math.Pow(float64(r-1), 2)*p.Lambda*p.Lambda
	return tau / (gamma + float64(r) - 1) * (2*b/p.Mu + p.Mu*gamma/2*p.DistSq)
}

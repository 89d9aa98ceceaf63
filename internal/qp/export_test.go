package qp

// Result carries the dual solution and diagnostics.
type Result struct {
	V          []float64 // dual variables, length k
	Iterations int       // active-set steps performed
	Converged  bool      // the solve reached its KKT point
}

// SolveDual minimises ½vᵀAv + bᵀv subject to v ≥ 0, where A = G·Gᵀ (k×k,
// symmetric positive semi-definite) and b = G·g. It is Lawson–Hanson's
// non-negative least squares in Gram form: the passive set (v > 0) grows by
// the most violated constraint, the passive block is solved through its
// Cholesky factor, and a step that would make a passive variable negative
// stops at the boundary and releases it.
func SolveDual(a [][]float64, b []float64) Result {
	var d dual
	k := len(b)
	d.grow(k)
	for i := range k {
		copy(d.a[i*k:(i+1)*k], a[i])
	}
	copy(d.b, b)
	iters, ok := d.solve(0)
	return Result{V: d.v, Iterations: iters, Converged: ok}
}

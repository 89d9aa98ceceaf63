// Package qp solves the small non-negative quadratic programs at the heart
// of gradient integration (Eq. 3–5 of the FedKNOW paper, after the GEM dual
// construction):
//
//	min_v  ½ vᵀ G Gᵀ v + gᵀ Gᵀ v    s.t.  v ≥ 0
//
// where G stacks k constraint gradients as rows and g is the current task's
// gradient. The primal solution g′ = Gᵀv + g then satisfies Gg′ ≥ 0, i.e.
// the integrated gradient keeps an acute (or right) angle with every
// constraint gradient while staying as close to g as possible.
//
// k is small (≤ ~20) so exact projected coordinate descent converges in a
// handful of sweeps; the dense k×k Gram matrix is the only quadratic cost.
package qp

import (
	"slices"

	"repro/internal/tensor"
)

// Result carries the dual solution and diagnostics.
type Result struct {
	V          []float64 // dual variables, length k
	Iterations int       // coordinate-descent sweeps performed
	Converged  bool
}

// SolveDual minimises ½vᵀAv + bᵀv subject to v ≥ 0, where A = G·Gᵀ (k×k,
// symmetric positive semi-definite) and b = G·g. It uses cyclic projected
// coordinate descent, which for this problem is exact per-coordinate:
// v_i ← max(0, v_i − (Av + b)_i / A_ii).
func SolveDual(a [][]float64, b []float64, maxSweeps int, tol float64) Result {
	return solveDual(make([]float64, len(b)), a, b, maxSweeps, tol)
}

// solveDual is SolveDual descending from and into v, which must be zeroed.
func solveDual(v []float64, a [][]float64, b []float64, maxSweeps int, tol float64) Result {
	k := len(b)
	if k == 0 {
		return Result{V: v, Converged: true}
	}
	if maxSweeps <= 0 {
		maxSweeps = 200
	}
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := 0.0
		for i := 0; i < k; i++ {
			aii := a[i][i]
			if aii <= 1e-12 {
				// Degenerate (zero) constraint gradient: its dual has no
				// curvature; leave it at the projection boundary.
				if b[i] < 0 {
					// unbounded direction in theory; clamp growth.
					nv := v[i] + 1
					if nv-v[i] > maxDelta {
						maxDelta = nv - v[i]
					}
					v[i] = nv
				}
				continue
			}
			grad := b[i]
			for j := 0; j < k; j++ {
				grad += a[i][j] * v[j]
			}
			nv := v[i] - grad/aii
			if nv < 0 {
				nv = 0
			}
			d := nv - v[i]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
			v[i] = nv
		}
		if maxDelta < tol {
			return Result{V: v, Iterations: sweep, Converged: true}
		}
	}
	return Result{V: v, Iterations: maxSweeps, Converged: false}
}

// Integrate computes the FedKNOW/GEM integrated gradient. G holds k
// constraint gradients (each of the same length as g). If g already has a
// non-negative dot product with every row of G it is returned unchanged
// (fast path: no QP needed). Otherwise the dual QP is solved and
// g′ = Gᵀv + g is returned as a fresh slice.
func Integrate(g []float32, G [][]float32) []float32 {
	return new(Workspace).Integrate(g, G)
}

// Workspace owns the buffers one Integrate call needs — the Gram matrix,
// the dual variables and g′ itself — so a caller that integrates on every
// training step allocates nothing once they have grown. The zero value is
// ready to use; a Workspace serves one goroutine at a time.
type Workspace struct {
	gram []float64   // k×k, row-major
	rows [][]float64 // row views into gram
	b, v []float64
	out  []float32
}

// Integrate is the package-level Integrate computed in the workspace's
// buffers: when the QP runs, the returned g′ is valid until the next call.
func (w *Workspace) Integrate(g []float32, G [][]float32) []float32 {
	k := len(G)
	if k == 0 {
		return g
	}
	// b = G g, up to the first violated constraint: the test for the fast
	// path computes the entries the QP needs anyway.
	w.b = slices.Grow(w.b[:0], k)[:k]
	b, known, violated := w.b, 0, false
	for known < k && !violated {
		b[known] = tensor.DotSlice(G[known], g)
		violated = b[known] < 0
		known++
	}
	if !violated {
		return g
	}
	// Gram matrix A = G Gᵀ and the rest of b.
	w.gram = slices.Grow(w.gram[:0], k*k)[:k*k]
	w.rows = slices.Grow(w.rows[:0], k)[:k]
	w.v = slices.Grow(w.v[:0], k)[:k]
	clear(w.v)
	a := w.rows
	for i := 0; i < k; i++ {
		a[i] = w.gram[i*k : (i+1)*k]
		for j := 0; j <= i; j++ {
			d := tensor.DotSlice(G[i], G[j])
			a[i][j] = d
			a[j][i] = d
		}
		if i >= known {
			b[i] = tensor.DotSlice(G[i], g)
		}
	}
	res := solveDual(w.v, a, b, 200, 1e-9)
	w.out = append(w.out[:0], g...)
	out := w.out
	for i, vi := range res.V {
		if vi != 0 {
			tensor.AxpySlice(out, float32(vi), G[i])
		}
	}
	// Cap ‖g′‖ at ‖g‖: with many near-conflicting constraints the dual
	// correction Gᵀv can dwarf the task gradient and a single step would
	// blow past the loss basin. Positive rescaling preserves every angle
	// constraint (G(αg′) = αGg′ ≥ 0) while keeping the step size bounded
	// by the task's own gradient.
	ng, nOut := tensor.NormSlice(g), tensor.NormSlice(out)
	if nOut > ng && nOut > 0 {
		scale := float32(ng / nOut)
		for i := range out {
			out[i] *= scale
		}
	}
	return out
}

// Violations counts how many constraint gradients have a negative dot
// product with g (diagnostic used in tests and experiment logging).
func Violations(g []float32, G [][]float32) int {
	n := 0
	for _, gi := range G {
		if tensor.DotSlice(gi, g) < -1e-9 {
			n++
		}
	}
	return n
}

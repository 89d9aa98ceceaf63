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
// k is small (≤ ~10), so the dual is solved exactly by Lawson–Hanson's
// active-set method on the k×k Gram matrix; the only cost that grows with
// the gradients' length is one pass that reads them and one that writes g′.
package qp

import (
	"math"
	"slices"

	"repro/internal/tensor"
)

const (
	// pivotTol is the relative Cholesky pivot below which a constraint is
	// kept out of the passive set. Its gradient is then within a sine of
	// 1e-5 of the passive gradients' span, and g′ is orthogonal to every
	// passive gradient, so the constraint already holds to a cosine of 1e-5.
	pivotTol = 1e-10
	// dualTol ends the solve: no inactive constraint has
	// Gᵢ·g′ < −dualTol·‖Gᵢ‖·‖g‖. It sits above the float64 rounding of
	// Gram products over a ResNet's gradient length.
	dualTol = 1e-12
	// degenerateTol flags the apex case (see Outcome.Degenerate): the
	// algebraic ‖g′‖² is below this share of ‖g‖² + ‖Gᵀv‖², the scale its
	// cancellation rounds at.
	degenerateTol = 1e-10
)

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

// dual holds the solver's buffers for one k: A row-major, b, v, the passive
// set in admission order with its Cholesky factor (row r of l belongs to
// passive[r]) and the passive solution z, by position.
type dual struct {
	k             int
	a, l          []float64
	b, v, z       []float64
	passive       []int
	inP, excluded []bool
}

func (d *dual) grow(k int) {
	d.k = k
	d.a = slices.Grow(d.a[:0], k*k)[:k*k]
	d.l = slices.Grow(d.l[:0], k*k)[:k*k]
	d.b = slices.Grow(d.b[:0], k)[:k]
	d.v = slices.Grow(d.v[:0], k)[:k]
	d.z = slices.Grow(d.z[:0], k)[:k]
	d.passive = slices.Grow(d.passive[:0], k)
	d.inP = slices.Grow(d.inP[:0], k)[:k]
	d.excluded = slices.Grow(d.excluded[:0], k)[:k]
}

// solve runs the active-set method from v = 0. gg is ‖g‖², the scale of
// dualTol; at 0 the solve ends where no inactive constraint is strictly
// violated. A constraint the factor refuses (pivot below pivotTol), or whose
// first passive solution is not positive (Lawson and Hanson's own guard
// against rounding), is excluded until the passive set next shrinks. The
// bound of 3k + 1 admissions only guards against floating-point cycling; a
// solve that reaches it reports that it did not converge.
func (d *dual) solve(gg float64) (iters int, converged bool) {
	k, a, v := d.k, d.a, d.v
	clear(v)
	clear(d.inP)
	clear(d.excluded)
	d.passive = d.passive[:0]
	for outer := 0; outer <= 3*k; outer++ {
		// The most violated inactive constraint: w = −(Av + b).
		j, best := -1, 0.0
		for i := range k {
			if d.inP[i] || d.excluded[i] {
				continue
			}
			wi := -d.b[i]
			for t, vt := range v {
				wi -= a[i*k+t] * vt
			}
			if wi > dualTol*math.Sqrt(a[i*k+i]*gg) && wi > best {
				j, best = i, wi
			}
		}
		if j < 0 {
			return iters, true
		}
		d.passive = append(d.passive, j)
		d.inP[j] = true
		d.factor()
		if !d.inP[j] {
			d.excluded[j] = true
			continue
		}
		for first := true; ; first = false {
			iters++
			d.solvePassive()
			p := len(d.passive)
			if first && !(d.z[p-1] > 0) {
				d.passive = d.passive[:p-1]
				d.inP[j] = false
				d.excluded[j] = true
				break
			}
			// The longest step towards z that keeps every passive v ≥ 0.
			alpha, stop := 1.0, -1
			for r, i := range d.passive {
				if d.z[r] <= 0 {
					if t := v[i] / (v[i] - d.z[r]); t < alpha {
						alpha, stop = t, r
					}
				}
			}
			if stop < 0 {
				for r, i := range d.passive {
					v[i] = d.z[r]
				}
				break
			}
			for r, i := range d.passive {
				v[i] += alpha * (d.z[r] - v[i])
			}
			v[d.passive[stop]] = 0
			n := 0
			for _, i := range d.passive {
				if v[i] > 0 {
					d.passive[n] = i
					n++
				} else {
					v[i] = 0
					d.inP[i] = false
				}
			}
			d.passive = d.passive[:n]
			clear(d.excluded)
			d.factor()
			if n == 0 {
				break
			}
		}
	}
	return iters, false
}

// factor recomputes the Cholesky factor of A over the passive set in order,
// dropping (and zeroing) every constraint whose pivot — the squared distance
// of its gradient from the span of the earlier ones — is not above pivotTol
// times its squared norm.
func (d *dual) factor() {
	k, a, l := d.k, d.a, d.l
	n := 0
	for _, i := range d.passive {
		row := l[n*k : n*k+n+1]
		for c := range n {
			x := a[i*k+d.passive[c]]
			for t := range c {
				x -= row[t] * l[c*k+t]
			}
			row[c] = x / l[c*k+c]
		}
		piv := a[i*k+i]
		for _, x := range row[:n] {
			piv -= x * x
		}
		if !(piv > pivotTol*a[i*k+i]) {
			d.v[i] = 0
			d.inP[i] = false
			continue
		}
		row[n] = math.Sqrt(piv)
		d.passive[n] = i
		n++
	}
	d.passive = d.passive[:n]
}

// solvePassive solves A_PP z = −b_P through the factor: z[r] belongs to
// passive[r].
func (d *dual) solvePassive() {
	k, l, z := d.k, d.l, d.z
	p := len(d.passive)
	for r, i := range d.passive {
		x := -d.b[i]
		for t := range r {
			x -= l[r*k+t] * z[t]
		}
		z[r] = x / l[r*k+r]
	}
	for r := p - 1; r >= 0; r-- {
		x := z[r]
		for t := r + 1; t < p; t++ {
			x -= l[t*k+r] * z[t]
		}
		z[r] = x / l[r*k+r]
	}
}

// Integrate computes the FedKNOW/GEM integrated gradient. G holds k
// constraint gradients (each of the same length as g). If g already has a
// non-negative dot product with every row of G it is returned unchanged
// (fast path: no QP needed). Otherwise the dual QP is solved and
// g′ = Gᵀv + g is returned as a fresh slice.
func Integrate(g []float32, G [][]float32) []float32 {
	return new(Workspace).Integrate(g, G)
}

// Outcome describes the last Integrate call. Its norms and product come from
// the Gram matrix and the dual, with no pass over the gradients.
type Outcome struct {
	Fired      bool    // some constraint was violated, so the dual was solved
	Converged  bool    // the dual solve reached its KKT point (when Fired)
	Degenerate bool    // the constraint cone is its apex; g′ was set to zero
	GG         float64 // ‖g‖²
	GOut       float64 // g·g′
	OutOut     float64 // ‖g′‖²
}

// Workspace owns the buffers one Integrate call needs — the Gram products,
// the dual solver's and g′ itself — so a caller that integrates on every
// training step allocates nothing once they have grown. The zero value is
// ready to use; a Workspace serves one goroutine at a time.
type Workspace struct {
	rows [][]float32 // [g; G₁…G_k]
	prod []float64   // their Gram products, packed as tensor.Gram packs them
	dual dual
	coef []float32   // the non-zero vᵢ, as float32
	sel  [][]float32 // their constraints
	out  []float32
	last Outcome
}

// Integrate is the package-level Integrate computed in the workspace's
// buffers: when the QP runs, the returned g′ is valid until the next call.
//
// It reads [g; G₁…G_k] once, in tensor.Gram, which yields ‖g‖², b = Gg and
// A = GGᵀ; the fast path's test reads the same b. The dual is solved
// exactly, and since g′ = g + Gᵀv,
//
//	‖g′‖² = ‖g‖² + 2bᵀv + vᵀAv    and    g·g′ = ‖g‖² + bᵀv,
//
// so the norm cap and the Outcome need no further pass. At the dual's
// KKT point vᵀAv = −bᵀv, hence ‖g′‖² = ‖g‖² − vᵀAv ≤ ‖g‖² (g′ is the
// projection of g onto a convex cone containing 0, Moreau): the cap
// ‖g′‖ ≤ ‖g‖ only absorbs rounding. If the cone is only its apex, g′ is 0
// and the algebraic ‖g′‖² is cancellation noise at most degenerateTol of
// ‖g‖² + ‖Gᵀv‖²; that solve is flagged Degenerate and g′ is written as 0.
// Otherwise one pass (tensor.AxpyRows) writes g′ = s·(g + Σ vᵢGᵢ), per
// coordinate the float32 operations of a copy of g, one AxpySlice per
// non-zero vᵢ in order and, when capped, the scale s = ‖g‖/‖g′‖.
func (w *Workspace) Integrate(g []float32, G [][]float32) []float32 {
	k := len(G)
	w.last = Outcome{}
	if k == 0 {
		return g
	}
	m := k + 1
	w.rows = append(append(w.rows[:0], g), G...)
	w.prod = slices.Grow(w.prod[:0], m*(m+1)/2)[:m*(m+1)/2]
	tensor.Gram(w.prod, w.rows)
	gg := w.prod[0]
	w.last = Outcome{GG: gg, GOut: gg, OutOut: gg}
	d := &w.dual
	d.grow(k)
	violated := false
	for i := range k {
		row := w.prod[(i+1)*(i+2)/2:]
		d.b[i] = row[0]
		violated = violated || row[0] < 0
		for j := 0; j <= i; j++ {
			d.a[i*k+j], d.a[j*k+i] = row[j+1], row[j+1]
		}
	}
	if !violated {
		return g
	}
	_, converged := d.solve(gg)
	var bv, vav float64
	for i, vi := range d.v {
		bv += d.b[i] * vi
		for j, vj := range d.v {
			vav += vi * d.a[i*k+j] * vj
		}
	}
	out2, gOut := gg+2*bv+vav, gg+bv
	w.last.Fired, w.last.Converged = true, converged
	w.out = slices.Grow(w.out[:0], len(g))[:len(g)]
	out := w.out
	if !(out2 > degenerateTol*(gg+vav)) {
		w.last.Degenerate, w.last.GOut, w.last.OutOut = true, 0, 0
		clear(out)
		return out
	}
	s := float32(1)
	if out2 > gg {
		s = float32(math.Sqrt(gg) / math.Sqrt(out2))
		gOut *= float64(s)
		out2 *= float64(s) * float64(s)
	}
	w.last.GOut, w.last.OutOut = gOut, out2
	w.coef, w.sel = w.coef[:0], w.sel[:0]
	for i, vi := range d.v {
		if vi != 0 {
			w.coef = append(w.coef, float32(vi))
			w.sel = append(w.sel, G[i])
		}
	}
	tensor.AxpyRows(out, g, w.coef, w.sel, s)
	return out
}

// Outcome reports what the last Integrate call did.
func (w *Workspace) Outcome() Outcome { return w.last }

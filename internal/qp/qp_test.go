package qp

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestSolveDualUnconstrainedInterior(t *testing.T) {
	// min ½v² − 2v, v ≥ 0 → v = 2.
	res := SolveDual([][]float64{{1}}, []float64{-2})
	if !res.Converged || math.Abs(res.V[0]-2) > 1e-9 {
		t.Fatalf("v = %v", res.V)
	}
}

func TestSolveDualActiveBound(t *testing.T) {
	// min ½v² + 3v, v ≥ 0 → v = 0 (bound active).
	res := SolveDual([][]float64{{1}}, []float64{3})
	if res.V[0] != 0 {
		t.Fatalf("v = %v, want 0", res.V)
	}
}

func TestSolveDualTwoDim(t *testing.T) {
	// A = [[2,0],[0,2]], b = [-2, 4] → v = (1, 0).
	res := SolveDual([][]float64{{2, 0}, {0, 2}}, []float64{-2, 4})
	if math.Abs(res.V[0]-1) > 1e-9 || res.V[1] != 0 {
		t.Fatalf("v = %v, want (1,0)", res.V)
	}
}

func TestSolveDualEmptyInstance(t *testing.T) {
	res := SolveDual(nil, nil)
	if !res.Converged || len(res.V) != 0 {
		t.Fatalf("empty instance: %+v", res)
	}
}

func TestSolveDualZeroDiagonal(t *testing.T) {
	// A degenerate zero constraint must not produce NaN.
	res := SolveDual([][]float64{{0}}, []float64{1})
	if math.IsNaN(res.V[0]) {
		t.Fatal("NaN dual variable")
	}
}

// bruteForceDual enumerates active sets for k ≤ 3 and solves each reduced
// unconstrained system exactly, returning the best feasible v.
func bruteForceDual(a [][]float64, b []float64) []float64 {
	k := len(b)
	best := make([]float64, k)
	bestObj := math.Inf(1)
	obj := func(v []float64) float64 {
		s := 0.0
		for i := 0; i < k; i++ {
			s += b[i] * v[i]
			for j := 0; j < k; j++ {
				s += 0.5 * v[i] * a[i][j] * v[j]
			}
		}
		return s
	}
	for mask := 0; mask < (1 << k); mask++ {
		// Free set = bits set in mask. Solve A_ff v_f = -b_f by Gaussian
		// elimination; clamp others to 0.
		var free []int
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				free = append(free, i)
			}
		}
		m := len(free)
		v := make([]float64, k)
		if m > 0 {
			// Build and solve the m×m system.
			mat := make([][]float64, m)
			rhs := make([]float64, m)
			for i, fi := range free {
				mat[i] = make([]float64, m)
				for j, fj := range free {
					mat[i][j] = a[fi][fj]
				}
				rhs[i] = -b[fi]
			}
			ok := gauss(mat, rhs)
			if !ok {
				continue
			}
			feasible := true
			for i, fi := range free {
				if rhs[i] < -1e-9 {
					feasible = false
					break
				}
				v[fi] = rhs[i]
			}
			if !feasible {
				continue
			}
		}
		if o := obj(v); o < bestObj {
			bestObj = o
			copy(best, v)
		}
	}
	return best
}

func gauss(a [][]float64, b []float64) bool {
	n := len(b)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for i := 0; i < n; i++ {
		b[i] /= a[i][i]
	}
	return true
}

func TestSolveDualMatchesBruteForce(t *testing.T) {
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(3)
		dim := 4 + rng.Intn(4)
		// Build A = G Gᵀ from random G so A is PSD.
		G := make([][]float64, k)
		for i := range G {
			G[i] = make([]float64, dim)
			for j := range G[i] {
				G[i][j] = rng.Norm()
			}
		}
		a := make([][]float64, k)
		b := make([]float64, k)
		for i := 0; i < k; i++ {
			a[i] = make([]float64, k)
			for j := 0; j < k; j++ {
				for d := 0; d < dim; d++ {
					a[i][j] += G[i][d] * G[j][d]
				}
			}
			b[i] = 2*rng.Norm() - 1
		}
		got := SolveDual(a, b)
		want := bruteForceDual(a, b)
		objective := func(v []float64) float64 {
			s := 0.0
			for i := 0; i < k; i++ {
				s += b[i] * v[i]
				for j := 0; j < k; j++ {
					s += 0.5 * v[i] * a[i][j] * v[j]
				}
			}
			return s
		}
		if objective(got.V) > objective(want)+1e-6 {
			t.Fatalf("trial %d: cd objective %v worse than brute force %v (v=%v want %v)",
				trial, objective(got.V), objective(want), got.V, want)
		}
	}
}

func TestIntegrateFastPathLeavesGradientAlone(t *testing.T) {
	g := []float32{1, 0}
	G := [][]float32{{1, 0.5}, {0.5, 1}}
	out := Integrate(g, G)
	if &out[0] != &g[0] {
		t.Fatal("fast path should return g unchanged when no constraint violated")
	}
}

func TestIntegrateResolvesObtuseAngle(t *testing.T) {
	// g points opposite to the constraint: integration must rotate it to
	// at least orthogonal.
	g := []float32{-1, 0}
	G := [][]float32{{1, 0}}
	out := Integrate(g, G)
	if d := tensor.DotSlice(G[0], out); d < -1e-5 {
		t.Fatalf("constraint still violated: dot = %v", d)
	}
}

func TestIntegrateEmptyConstraints(t *testing.T) {
	g := []float32{1, 2, 3}
	out := Integrate(g, nil)
	for i := range g {
		if out[i] != g[i] {
			t.Fatal("no constraints must be identity")
		}
	}
}

func TestIntegratePreservesDescentDirection(t *testing.T) {
	// The integrated gradient should stay positively correlated with the
	// original one (the QP minimises the rotation).
	rng := tensor.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		dim := 10
		g := make([]float32, dim)
		rng.FillNorm(g, 1)
		G := make([][]float32, 3)
		for i := range G {
			G[i] = make([]float32, dim)
			rng.FillNorm(G[i], 1)
		}
		out := Integrate(g, G)
		if tensor.DotSlice(out, g) < -1e-6 {
			t.Fatalf("trial %d: integrated gradient opposes original", trial)
		}
	}
}

// sweepViolators is every one of the 65 536 integrateInstance seeds on which
// the constraint cone {x : Gx ≥ 0} is only its apex (k > dim rows that
// positively span the space): g′ is 0, the algebraic ‖g′‖² is cancellation
// noise, and Integrate flags the solve Degenerate. The list is exactly the
// flagged set of the full sweep, which TestIntegrateSatisfiesAllConstraints
// runs, so a stale entry or a missing one fails it.
var sweepViolators = []uint16{
	656, 902, 2533, 6425, 7319, 8257, 9536, 9632, 10122, 10759, 10768, 11561, 11574, 12162, 12491,
	12811, 14765, 14852, 15614, 16429, 16791, 17961, 18251, 18549, 19158, 19503, 19774, 19788,
	20081, 20110, 22281, 22612, 22700, 22707, 22794, 23003, 23386, 23996, 24003, 25951, 26094,
	27260, 27762, 28415, 28705, 28723, 28986, 29615, 29761, 31313, 32695, 34096, 35234, 35511,
	36117, 36134, 38430, 38772, 39190, 39473, 40759, 43828, 45531, 45552, 45900, 46046, 46570,
	47121, 48799, 49029, 50322, 50402, 51842, 52408, 52569, 52858, 53644, 54391, 56308, 57114,
	57602, 59301, 59734, 60362, 60752, 62182, 63390, 65289,
}

// constraintSlack bounds how far g′ may lean against a constraint gradient,
// as a cosine: gᵢ·g′ ≥ −constraintSlack·‖gᵢ‖·‖g′‖. The dual is exact; the
// slack absorbs the float32 rounding of the written g′ where it is small
// against g and Gᵀv.
const constraintSlack = 1e-4

// integrateInstance derives one random Integrate input from the seed alone.
func integrateInstance(seed uint16) (g []float32, G [][]float32) {
	r := tensor.NewRNG(11).Fork(uint64(seed))
	dim := 5 + r.Intn(20)
	k := 1 + r.Intn(6)
	g = make([]float32, dim)
	r.FillNorm(g, 1)
	G = make([][]float32, k)
	for i := range G {
		G[i] = make([]float32, dim)
		r.FillNorm(G[i], 1)
	}
	return g, G
}

// forEachInstance integrates every one of the 65 536 integrateInstance seeds
// in one workspace and hands fn what a check needs: the inputs, g′, the
// outcome and the dual solution.
func forEachInstance(fn func(seed uint16, g []float32, G [][]float32, out []float32, o Outcome, v []float64)) {
	var w Workspace
	for s := 0; s <= math.MaxUint16; s++ {
		g, G := integrateInstance(uint16(s))
		out := w.Integrate(g, G)
		fn(uint16(s), g, G, out, w.Outcome(), w.dual.v)
	}
}

// TestIntegrateSatisfiesAllConstraints is the paper's core invariant
// (Gg′ ≥ 0), checked on all 65 536 seeds: every solve converges, every
// solve but the listed apex seeds holds every constraint to constraintSlack,
// and the solver flags exactly those seeds Degenerate (and writes g′ = 0).
func TestIntegrateSatisfiesAllConstraints(t *testing.T) {
	apex := map[uint16]bool{}
	for _, s := range sweepViolators {
		apex[s] = true
	}
	fired := 0
	forEachInstance(func(seed uint16, g []float32, G [][]float32, out []float32, o Outcome, _ []float64) {
		if !o.Fired {
			return
		}
		fired++
		if !o.Converged {
			t.Errorf("seed %d: the dual solve did not converge", seed)
		}
		if o.Degenerate != apex[seed] {
			t.Errorf("seed %d: Degenerate = %v, listed as an apex seed: %v", seed, o.Degenerate, apex[seed])
			return
		}
		if o.Degenerate {
			for p, x := range out {
				if x != 0 {
					t.Errorf("seed %d: degenerate g′[%d] = %v, want 0", seed, p, x)
					return
				}
			}
			return
		}
		nOut := tensor.NormSlice(out)
		for i, gi := range G {
			if tensor.DotSlice(gi, out) < -constraintSlack*tensor.NormSlice(gi)*nOut {
				t.Errorf("seed %d: g′ leans against constraint %d beyond the slack", seed, i)
			}
		}
	})
	if fired == 0 {
		t.Fatal("no instance violated a constraint: the sweep checked nothing")
	}
}

// TestIntegrateNormIdentities pins the algebra Integrate takes its cap and
// statistics from, on all 65 536 seeds, against the g′ it writes:
//   - Eq. 16's envelope: ‖g′‖² ≤ λ²(1 + Σv)², λ = max(‖g‖, maxᵢ‖Gᵢ‖);
//   - ‖g′‖² = ‖g‖² + 2bᵀv + vᵀAv and g·g′ = ‖g‖² + bᵀv agree with the written
//     vector's NormSlice² and DotSlice to 1e-6 of that envelope (the float32
//     rounding of the write);
//   - ‖g′‖ ≤ ‖g‖·(1 + 1e-6) on every non-degenerate solve (Moreau: the cap
//     only absorbs rounding).
func TestIntegrateNormIdentities(t *testing.T) {
	forEachInstance(func(seed uint16, g []float32, G [][]float32, out []float32, o Outcome, v []float64) {
		ng := tensor.NormSlice(g)
		if !o.Fired {
			if o.GG != tensor.DotSlice(g, g) || o.GOut != o.GG || o.OutOut != o.GG {
				t.Errorf("seed %d: fast-path outcome %+v, want ‖g‖² = %v throughout", seed, o, ng*ng)
			}
			return
		}
		lambda, sum := ng, 1.0
		for i, gi := range G {
			lambda = math.Max(lambda, tensor.NormSlice(gi))
			sum += v[i]
		}
		envelope := lambda * lambda * sum * sum
		nOut := tensor.NormSlice(out)
		if nOut*nOut > envelope {
			t.Errorf("seed %d: ‖g′‖² = %v exceeds Eq. 16's λ²(1+Σv)² = %v", seed, nOut*nOut, envelope)
		}
		if d := math.Abs(nOut*nOut - o.OutOut); d > 1e-6*envelope {
			t.Errorf("seed %d: algebraic ‖g′‖² = %v, written %v", seed, o.OutOut, nOut*nOut)
		}
		if d := math.Abs(tensor.DotSlice(g, out) - o.GOut); d > 1e-6*envelope {
			t.Errorf("seed %d: algebraic g·g′ = %v, written %v", seed, o.GOut, tensor.DotSlice(g, out))
		}
		if !o.Degenerate && nOut > ng*(1+1e-6) {
			t.Errorf("seed %d: ‖g′‖ = %v exceeds ‖g‖ = %v", seed, nOut, ng)
		}
	})
}

// TestIntegrateDependentConstraints holds the pivot tolerance to its job:
// constraints that are float32-rounded combinations of two others have a
// Cholesky pivot at rounding level, and admitting one makes the passive
// solve noise (without the tolerance a third of these instances lean
// against a constraint with cosines down to −0.77). With it, every instance
// holds each constraint to constraintSlack.
func TestIntegrateDependentConstraints(t *testing.T) {
	var w Workspace
	fired := 0
	for s := range 1000 {
		r := tensor.NewRNG(77).Fork(uint64(s))
		dim := 8 + r.Intn(200)
		G := make([][]float32, 3+r.Intn(3))
		for i := range G {
			G[i] = make([]float32, dim)
			if i < 2 {
				r.FillNorm(G[i], 1)
				continue
			}
			a, b := float32(r.Norm()), float32(r.Norm())
			for p := range G[i] {
				G[i][p] = a*G[0][p] + b*G[1][p]
			}
		}
		g := make([]float32, dim)
		r.FillNorm(g, 1)
		for _, gi := range G {
			tensor.AxpySlice(g, -0.7, gi)
		}
		out := w.Integrate(g, G)
		if o := w.Outcome(); !o.Fired || o.Degenerate {
			continue
		}
		fired++
		nOut := tensor.NormSlice(out)
		for i, gi := range G {
			if tensor.DotSlice(gi, out) < -constraintSlack*tensor.NormSlice(gi)*nOut {
				t.Fatalf("instance %d: g′ leans against constraint %d beyond the slack", s, i)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no instance fired the QP")
	}
}

func TestWorkspaceAllocFree(t *testing.T) {
	var w Workspace
	var g []float32
	var G [][]float32
	for s := uint16(0); !w.Outcome().Fired; s++ {
		g, G = integrateInstance(s)
		w.Integrate(g, G)
	}
	if allocs := testing.AllocsPerRun(10, func() { w.Integrate(g, G) }); allocs != 0 {
		t.Fatalf("a warm Workspace.Integrate allocates %.1f objects/op, want 0", allocs)
	}
}

func TestViolations(t *testing.T) {
	g := []float32{1, 0}
	G := [][]float32{{1, 0}, {-1, 0}, {0, 1}}
	if got := Violations(g, G); got != 1 {
		t.Fatalf("Violations = %d, want 1", got)
	}
}

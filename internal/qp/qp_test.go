package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSolveDualUnconstrainedInterior(t *testing.T) {
	// min ½v² − 2v, v ≥ 0 → v = 2.
	res := SolveDual([][]float64{{1}}, []float64{-2}, 100, 1e-12)
	if !res.Converged || math.Abs(res.V[0]-2) > 1e-9 {
		t.Fatalf("v = %v", res.V)
	}
}

func TestSolveDualActiveBound(t *testing.T) {
	// min ½v² + 3v, v ≥ 0 → v = 0 (bound active).
	res := SolveDual([][]float64{{1}}, []float64{3}, 100, 1e-12)
	if res.V[0] != 0 {
		t.Fatalf("v = %v, want 0", res.V)
	}
}

func TestSolveDualTwoDim(t *testing.T) {
	// A = [[2,0],[0,2]], b = [-2, 4] → v = (1, 0).
	res := SolveDual([][]float64{{2, 0}, {0, 2}}, []float64{-2, 4}, 100, 1e-12)
	if math.Abs(res.V[0]-1) > 1e-9 || res.V[1] != 0 {
		t.Fatalf("v = %v, want (1,0)", res.V)
	}
}

func TestSolveDualEmptyInstance(t *testing.T) {
	res := SolveDual(nil, nil, 10, 1e-9)
	if !res.Converged || len(res.V) != 0 {
		t.Fatalf("empty instance: %+v", res)
	}
}

func TestSolveDualZeroDiagonal(t *testing.T) {
	// A degenerate zero constraint must not produce NaN.
	res := SolveDual([][]float64{{0}}, []float64{1}, 50, 1e-9)
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
		got := SolveDual(a, b, 2000, 1e-12)
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
// Integrate's g′ breaks constraintSlack (swept once, PR 14). Each has one of
// two causes, which TestIntegrateSatisfiesAllConstraints excuses by name and
// nothing else: on 106 the projected coordinate descent is still moving at
// Integrate's 200-sweep cap (k ≥ dim−1 rows, a near-singular Gram matrix), on
// 42 the constraint cone is only its apex and g′ cancelled to rounding noise.
var sweepViolators = []uint16{
	656, 902, 1788, 2405, 2533, 3940, 4218, 4397, 5836, 6425, 7319, 8257, 8792, 9536, 9632, 9680,
	10071, 10122, 10759, 10768, 11458, 11561, 11574, 11626, 12162, 12491, 12811, 14765, 14852,
	15302, 15486, 15614, 16429, 16791, 17961, 18251, 18549, 19158, 19176, 19503, 19774, 19788,
	20081, 20110, 20670, 20808, 22281, 22612, 22700, 22707, 22794, 23003, 23163, 23386, 23707,
	23750, 23996, 24003, 24189, 24628, 25394, 25907, 25951, 26094, 26665, 26833, 27260, 27315,
	27560, 27762, 28415, 28705, 28723, 28913, 28986, 29050, 29615, 29761, 30726, 31154, 31313,
	32074, 32663, 32695, 32697, 32842, 34096, 34704, 35234, 35415, 35503, 35511, 36117, 36134,
	37260, 38430, 38772, 39190, 39473, 40759, 42184, 43519, 43828, 45531, 45552, 45900, 46046,
	46570, 47121, 48394, 48799, 48812, 49029, 50322, 50402, 50407, 50595, 50682, 51551, 51842,
	52408, 52414, 52569, 52858, 53181, 53644, 54391, 55332, 56308, 56337, 57114, 57602, 57908,
	58495, 59018, 59301, 59734, 60362, 60752, 61401, 61708, 61981, 62133, 62182, 62788, 63390,
	63503, 65289,
}

// constraintSlack bounds how far g′ may lean against a constraint gradient,
// as a cosine: gᵢ·g′ ≥ −constraintSlack·‖gᵢ‖·‖g′‖. Coordinate descent stops
// at a tolerance, not at the exact optimum.
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

// TestIntegrateSatisfiesAllConstraints is the paper's core invariant
// (Gg′ ≥ 0), checked property-style: on 60 instances drawn from a fixed
// source and on every known violator of the full sweep. An instance is held
// to constraintSlack unless its dual solve did not converge within
// Integrate's sweep cap, or g′ vanished against g (the zero vector satisfies
// every constraint; its cosines are rounding noise).
func TestIntegrateSatisfiesAllConstraints(t *testing.T) {
	holds := func(seed uint16) bool {
		g, G := integrateInstance(seed)
		a := make([][]float64, len(G))
		b := make([]float64, len(G))
		for i := range G {
			a[i] = make([]float64, len(G))
			for j := range G {
				a[i][j] = tensor.DotSlice(G[i], G[j])
			}
			b[i] = tensor.DotSlice(G[i], g)
		}
		out := Integrate(g, G)
		nOut := tensor.NormSlice(out)
		if !SolveDual(a, b, 200, 1e-9).Converged || nOut <= 1e-6*tensor.NormSlice(g) {
			return true
		}
		for _, gi := range G {
			if tensor.DotSlice(gi, out) < -constraintSlack*tensor.NormSlice(gi)*nOut {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(holds, cfg); err != nil {
		t.Fatal(err)
	}
	for _, seed := range sweepViolators {
		if !holds(seed) {
			t.Fatalf("seed %d: g′ breaks the constraint slack on a converged, non-vanishing solve", seed)
		}
	}
}

func TestViolations(t *testing.T) {
	g := []float32{1, 0}
	G := [][]float32{{1, 0}, {-1, 0}, {0, 1}}
	if got := Violations(g, G); got != 1 {
		t.Fatalf("Violations = %d, want 1", got)
	}
}

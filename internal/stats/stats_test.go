package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWassersteinIdentical(t *testing.T) {
	a := []float32{3, 1, 2}
	if d := Wasserstein1D(a, []float32{1, 2, 3}); d != 0 {
		t.Fatalf("permuted identical samples: d = %v, want 0", d)
	}
}

func TestWassersteinShift(t *testing.T) {
	// Shifting a distribution by c moves W1 by exactly c.
	a := []float32{0, 1, 2, 3}
	b := []float32{5, 6, 7, 8}
	if d := Wasserstein1D(a, b); math.Abs(d-5) > 1e-9 {
		t.Fatalf("shift distance = %v, want 5", d)
	}
}

func TestWassersteinSymmetric(t *testing.T) {
	a := []float32{1, -2, 0.5}
	b := []float32{4, 0, -1}
	if math.Abs(Wasserstein1D(a, b)-Wasserstein1D(b, a)) > 1e-12 {
		t.Fatal("W1 must be symmetric")
	}
}

func TestWassersteinEmpty(t *testing.T) {
	if Wasserstein1D(nil, nil) != 0 {
		t.Fatal("empty distance must be 0")
	}
}

func TestQuickWassersteinTriangleish(t *testing.T) {
	// Non-negativity and identity of indiscernibles, property-style.
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		if Wasserstein1D(raw, raw) != 0 {
			return false
		}
		other := make([]float32, len(raw))
		for i, v := range raw {
			other[i] = v + 1
		}
		return Wasserstein1D(raw, other) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsampledWassersteinSmallInput(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	if SubsampledWasserstein(a, b, 100) != Wasserstein1D(a, b) {
		t.Fatal("small inputs must use the exact distance")
	}
}

func TestSubsampledWassersteinApproximates(t *testing.T) {
	n := 10000
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i) / float32(n)
		b[i] = float32(i)/float32(n) + 2
	}
	exact := Wasserstein1D(a, b)
	approx := SubsampledWasserstein(a, b, 500)
	if math.Abs(exact-approx) > 0.05*exact {
		t.Fatalf("approx %v too far from exact %v", approx, exact)
	}
}

func TestAngleIsObtuse(t *testing.T) {
	if AngleIsObtuse([]float32{1, 0}, []float32{1, 1}) {
		t.Fatal("acute reported obtuse")
	}
	if !AngleIsObtuse([]float32{1, 0}, []float32{-1, 0.1}) {
		t.Fatal("obtuse not detected")
	}
}

func TestTopKDissimilar(t *testing.T) {
	ref := []float32{0, 0, 0}
	cands := [][]float32{
		{1, 1, 1}, // W1 = 1
		{5, 5, 5}, // W1 = 5
		{2, 2, 2}, // W1 = 2
		{0, 0, 0}, // W1 = 0
	}
	got := TopKDissimilar(ref, cands, 2, Wasserstein1D)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("TopKDissimilar = %v, want [1 2]", got)
	}
}

func TestTopKDissimilarKLargerThanCandidates(t *testing.T) {
	got := TopKDissimilar([]float32{0}, [][]float32{{1}}, 5, Wasserstein1D)
	if len(got) != 1 {
		t.Fatalf("clamped k: %v", got)
	}
}

func TestTopKDissimilarDeterministicTies(t *testing.T) {
	ref := []float32{0}
	cands := [][]float32{{1}, {1}, {1}}
	got := TopKDissimilar(ref, cands, 2, Wasserstein1D)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("ties must break by index: %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty stats must be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {1, 50}, {0.5, 35},
		{0.25, 20}, {0.75, 40},
		{0.4, 29}, // rank 1.6 between 20 and 35: 20 + 0.6*15
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Fatalf("input mutated: %v", xs)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("singleton = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range fraction must panic")
		}
	}()
	Percentile(xs, 1.5)
}

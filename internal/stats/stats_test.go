package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
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
	if Mean(nil) != 0 {
		t.Fatal("empty stats must be 0")
	}
}

// refSubsampledWasserstein is the distance signature selection ranked by
// before it sorted into reused buffers: a fresh subsample of each side, each
// sorted with sort.Slice.
func refSubsampledWasserstein(a, b []float32, maxN int) float64 {
	if maxN > 0 && len(a) > maxN {
		stride := len(a) / maxN
		var sa, sb []float32
		for i := 0; i < len(a) && len(sa) < maxN; i += stride {
			sa, sb = append(sa, a[i]), append(sb, b[i])
		}
		a, b = sa, sb
	}
	as := append([]float32(nil), a...)
	bs := append([]float32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	var s float64
	for i := range as {
		s += math.Abs(float64(as[i]) - float64(bs[i]))
	}
	if len(as) == 0 {
		return 0
	}
	return s / float64(len(as))
}

// TestSortedDistanceMatchesReference holds the subsample-and-sort-once
// distance to the reference bit for bit on finite samples, signed zeros and
// ties included, at and around the subsample bound.
func TestSortedDistanceMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(9)
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{0, 1, 7, 100, 2047, 2048, 2049, 5000} {
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			switch rng.Intn(4) {
			case 0:
				a[i] = negZero
			case 1:
				a[i] = float32(rng.Intn(3))
			default:
				a[i] = float32(rng.Norm())
			}
			b[i] = float32(rng.Norm()) * 0.01
			if rng.Intn(3) == 0 {
				b[i] = 0
			}
		}
		for _, maxN := range []int{0, 64, 2048} {
			got := SortedDistance(SortedSubsample(nil, a, maxN), SortedSubsample(nil, b, maxN))
			if want := refSubsampledWasserstein(a, b, maxN); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d maxN=%d: distance %v, reference %v", n, maxN, got, want)
			}
		}
	}
}

package prune

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestTopK(t *testing.T) {
	cases := []struct {
		n    int
		rho  float64
		want int
	}{
		{100, 0.1, 10},
		{100, 0.05, 5},
		{100, 0.2, 20},
		{3, 0.1, 1},   // at least one
		{10, 1.5, 10}, // clamped to n
		{0, 0.1, 0},
		{10, 0, 0},
	}
	for _, c := range cases {
		if got := TopK(c.n, c.rho); got != c.want {
			t.Fatalf("TopK(%d, %v) = %d, want %d", c.n, c.rho, got, c.want)
		}
	}
}

func TestExtractKeepsLargestMagnitudes(t *testing.T) {
	w := []float32{0.1, -5, 0.2, 3, -0.05}
	s := Extract(w, 0.4) // keep 2
	if s.Len() != 2 {
		t.Fatalf("kept %d, want 2", s.Len())
	}
	// Largest |w| are -5 (idx 1) and 3 (idx 3); indices stored ascending.
	if s.Indices[0] != 1 || s.Indices[1] != 3 {
		t.Fatalf("indices = %v, want [1 3]", s.Indices)
	}
	if s.Values[0] != -5 || s.Values[1] != 3 {
		t.Fatalf("values = %v", s.Values)
	}
}

func TestDensifyZeroesRest(t *testing.T) {
	w := []float32{1, -9, 2, 8}
	s := Extract(w, 0.5)
	d := s.Densify()
	want := []float32{0, -9, 0, 8}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("densify[%d] = %v, want %v", i, d[i], v)
		}
	}
}

func TestPasteIntoKeepsOthers(t *testing.T) {
	w := []float32{1, -9, 2, 8}
	s := Extract(w, 0.5)
	dst := []float32{10, 20, 30, 40}
	s.PasteInto(dst)
	want := []float32{10, -9, 30, 8}
	for i, v := range want {
		if dst[i] != v {
			t.Fatalf("paste[%d] = %v, want %v", i, dst[i], v)
		}
	}
}

func TestRefreshReReads(t *testing.T) {
	w := []float32{1, -9, 2, 8}
	s := Extract(w, 0.5)
	w[1] = -11
	s.Refresh(w)
	if s.Values[0] != -11 {
		t.Fatalf("refresh did not pick up new value: %v", s.Values)
	}
}

func TestMask(t *testing.T) {
	w := []float32{1, -9, 2, 8}
	m := Extract(w, 0.5).Mask()
	want := []bool{false, true, false, true}
	for i, v := range want {
		if m[i] != v {
			t.Fatalf("mask[%d] = %v, want %v", i, m[i], v)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	w := make([]float32, 1000)
	for i := range w {
		w[i] = float32(i)
	}
	s := Extract(w, 0.1)
	if s.Bytes() != 100*8 {
		t.Fatalf("Bytes = %d, want 800", s.Bytes())
	}
}

// Property: extraction keeps exactly TopK(n, rho) weights and every kept
// magnitude is >= every dropped magnitude.
func TestQuickExtractInvariants(t *testing.T) {
	rng := tensor.NewRNG(3)
	f := func(seed uint16) bool {
		r := rng.Fork(uint64(seed))
		n := 1 + r.Intn(200)
		w := make([]float32, n)
		r.FillNorm(w, 1)
		rho := 0.05 + 0.4*r.Float64()
		s := Extract(w, rho)
		if s.Len() != TopK(n, rho) {
			return false
		}
		kept := make(map[int32]bool, s.Len())
		var minKept float32 = 1e30
		for i, idx := range s.Indices {
			kept[idx] = true
			if s.Values[i] != w[idx] {
				return false
			}
			if a := abs32(w[idx]); a < minKept {
				minKept = a
			}
		}
		for i, v := range w {
			if !kept[int32(i)] && abs32(v) > minKept {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractMatchesFullSort holds the quickselect to the order it stands in
// for: the top TopK(n, ρ) of a full (|w| descending, index ascending) sort,
// NaN ranking as zero, reported in ascending index order — on inputs that are
// mostly ties (a few distinct magnitudes, zeros, NaNs), where the threshold
// run is long and the tie-break decides most of the selection. ExtractSegments
// must be that selection made inside each segment, indices shifted.
func TestExtractMatchesFullSort(t *testing.T) {
	reference := func(w []float32, rho float64, off int) (idx []int32, vals []float32) {
		order := make([]int, len(w))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return absOrZero(w[order[a]]) > absOrZero(w[order[b]]) })
		keep := append([]int(nil), order[:TopK(len(w), rho)]...)
		sort.Ints(keep)
		for _, i := range keep {
			idx = append(idx, int32(off+i))
			vals = append(vals, w[i])
		}
		return idx, vals
	}
	same := func(t *testing.T, s *SparseStore, idx []int32, vals []float32) {
		t.Helper()
		if len(s.Indices) != len(idx) || len(s.Values) != len(vals) {
			t.Fatalf("kept %d indices and %d values, want %d", len(s.Indices), len(s.Values), len(idx))
		}
		for i := range idx {
			if s.Indices[i] != idx[i] || math.Float32bits(s.Values[i]) != math.Float32bits(vals[i]) {
				t.Fatalf("entry %d: (%d, %v), want (%d, %v)", i, s.Indices[i], s.Values[i], idx[i], vals[i])
			}
		}
	}
	rng := tensor.NewRNG(5)
	levels := []float32{0, 0, 0, 0.5, -0.5, 1, -1, 2, float32(math.NaN())}
	for trial := 0; trial < 200; trial++ {
		segments := make([]int, 1+rng.Intn(6))
		n := 0
		for i := range segments {
			segments[i] = rng.Intn(40) // empty segments included
			n += segments[i]
		}
		w := make([]float32, n)
		for i := range w {
			w[i] = levels[rng.Intn(len(levels))]
		}
		rho := []float64{0, 0.05, 0.1, 0.5, 1}[rng.Intn(5)]

		idx, vals := reference(w, rho, 0)
		same(t, Extract(w, rho), idx, vals)

		idx, vals = nil, nil
		off := 0
		for _, segLen := range segments {
			i, v := reference(w[off:off+segLen], rho, off)
			idx, vals = append(idx, i...), append(vals, v...)
			off += segLen
		}
		same(t, ExtractSegments(w, segments, rho), idx, vals)
	}
}

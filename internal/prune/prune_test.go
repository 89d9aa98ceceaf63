package prune

import (
	"encoding/binary"
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

// reference is the order the radix select stands in for: the top TopK(n, ρ)
// of a full (|w| descending, index ascending) sort, NaN ranking as zero,
// reported in ascending index order, indices shifted by off.
func reference(w []float32, rho float64, off int) (idx []int32, vals []float32) {
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

// segmentsReference is reference made inside each segment.
func segmentsReference(w []float32, segments []int, rho float64) (idx []int32, vals []float32) {
	off := 0
	for _, segLen := range segments {
		i, v := reference(w[off:off+segLen], rho, off)
		idx, vals = append(idx, i...), append(vals, v...)
		off += segLen
	}
	return idx, vals
}

// sameSelection fails t unless s holds exactly idx and vals, value bits
// included.
func sameSelection(t *testing.T, s *SparseStore, idx []int32, vals []float32) {
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

// TestExtractMatchesFullSort holds the radix select to reference on inputs
// that are mostly ties (a few distinct magnitudes, zeros, NaNs), where the
// threshold run is long and the tie-break decides most of the selection.
// ExtractSegments must be that selection made inside each segment, indices
// shifted. The key is the IEEE-754 bits with the sign cleared and NaN as 0,
// which orders as |w| does; the later level sets aim at the ways a key can
// get that wrong: magnitudes that share the top digit and differ only in a
// lower one, signed zeros, NaNs of both signs with payloads and infinities,
// denormals, and all-equal segments (BatchNorm γ = 1 at init), at lengths
// 1–9 and in segments of thousands.
func TestExtractMatchesFullSort(t *testing.T) {
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
		sameSelection(t, Extract(w, rho), idx, vals)

		idx, vals = segmentsReference(w, segments, rho)
		sameSelection(t, ExtractSegments(w, segments, rho), idx, vals)
	}

	for _, set := range radixLevelSets() {
		t.Run(set.name, func(t *testing.T) {
			for trial := 0; trial < 60; trial++ {
				var segments []int
				switch trial % 3 {
				case 0: // every short length
					segments = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
				case 1: // one long segment
					segments = []int{2049 + rng.Intn(6144)}
				default:
					segments = []int{rng.Intn(10), rng.Intn(300), rng.Intn(10)}
				}
				var w []float32
				for _, segLen := range segments {
					for range segLen {
						w = append(w, set.levels[rng.Intn(len(set.levels))])
					}
				}
				for _, rho := range []float64{0.01, 0.1, 0.5, 1} { // k = 1 … k = n
					idx, vals := reference(w, rho, 0)
					sameSelection(t, Extract(w, rho), idx, vals)
					idx, vals = segmentsReference(w, segments, rho)
					sameSelection(t, ExtractSegments(w, segments, rho), idx, vals)
				}
			}
		})
	}
}

// levelSet is a set of values to draw weights from, named by what it tests.
type levelSet struct {
	name   string
	levels []float32
}

// radixLevelSets returns the level sets TestExtractMatchesFullSort and
// FuzzExtractSegments draw weights from.
func radixLevelSets() []levelSet {
	bits := func(b ...uint32) []float32 {
		out := make([]float32, len(b))
		for i, x := range b {
			out[i] = math.Float32frombits(x)
		}
		return out
	}
	// 1.0 is 0x3f800000: its top digit (bits 20–30) is 0x3f8.
	return []levelSet{
		{"shared_top_digit", bits(0x3f800000, 0xbf800000, 0x3f800400, 0xbf800400, 0x3f8ffc00,
			0x3f800001, 0xbf800001, 0x3f8003ff, 0x3f8ffc01, 0x3f8fffff, 0xbf8fffff, 0x3f7fffff)},
		{"signed_zeros", bits(0, 0x80000000, 0, 0x80000000, 0x3f000000, 0xbf000000)},
		{"nan_inf", bits(0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fffffff, 0xffffffff,
			0x7f800000, 0xff800000, 0, 0x80000000, 0x3f800000, 0xbf800000)},
		{"denormals", bits(1, 0x80000001, 2, 0x007fffff, 0x807fffff, 0x00400000, 0x00800000,
			0x80800000, 0, 0x80000000)},
		{"all_equal", []float32{1}},
	}
}

// FuzzExtractSegments searches for weights and a segmentation on which
// ExtractSegments and Extract differ from the sort reference. w is raw's
// little-endian float32s; each byte of cuts is one segment's length and the
// rest of w is the last segment; pct is ρ in percent. Its seeds stay short,
// since minimising an input costs a sort per try; segments of thousands are
// TestExtractMatchesFullSort's.
func FuzzExtractSegments(f *testing.F) {
	encode := func(w []float32) []byte {
		raw := make([]byte, 0, 4*len(w))
		for _, v := range w {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		return raw
	}
	rng := tensor.NewRNG(9)
	for _, set := range radixLevelSets() {
		for _, n := range []int{9, 64} {
			w := make([]float32, n)
			for i := range w {
				w[i] = set.levels[rng.Intn(len(set.levels))]
			}
			for _, rho := range []uint8{1, 10, 100} {
				f.Add(encode(w), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0}, rho)
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw, cuts []byte, pct uint8) {
		w := make([]float32, len(raw)/4)
		for i := range w {
			w[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		rho := float64(pct%101) / 100
		var segments []int
		rest := len(w)
		for _, c := range cuts {
			segLen := min(int(c), rest)
			segments, rest = append(segments, segLen), rest-segLen
		}
		segments = append(segments, rest)
		idx, vals := segmentsReference(w, segments, rho)
		sameSelection(t, ExtractSegments(w, segments, rho), idx, vals)
		idx, vals = reference(w, rho, 0)
		sameSelection(t, Extract(w, rho), idx, vals)
	})
}

// absOrZero is |v| with NaN mapped to 0: the order the selection stands in
// for, computed on floats.
func absOrZero(v float32) float32 {
	if v != v {
		return 0
	}
	return abs32(v)
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

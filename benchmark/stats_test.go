package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// "The highest percentile that has at least ten samples beyond it."
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false},
		{40, 0.75, true},
		{50, 0.75, true},
		{99, 0.75, true},
		{100, 0.90, true},
		{150, 0.90, true}, // p95 would leave 7.5
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{2400, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && samplesBeyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond it", c.n, got, samplesBeyond(c.n, got))
		}
	}
	if samplesBeyond(100, 0.90) != 10 || samplesBeyond(50, 0.90) != 5 {
		t.Errorf("samplesBeyond: got %d and %d, want 10 and 5", samplesBeyond(100, 0.90), samplesBeyond(50, 0.90))
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose; must not be modified
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %g, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 11},
		{[]float64{3}, 3, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestUnionLength(t *testing.T) {
	iv := [][2]int64{{10, 30}, {20, 50}, {70, 80}, {90, 120}, {-5, 2}}
	if got := unionLength(iv, 0, 100); got != 40+10+10+2 {
		t.Errorf("unionLength = %d, want 62", got)
	}
	if got := unionLength(nil, 0, 100); got != 0 {
		t.Errorf("unionLength(nil) = %d", got)
	}
}

package metrics

import (
	"math"
	"testing"
)

func TestMatrixShape(t *testing.T) {
	m := NewMatrix(3)
	if len(m.Acc) != 3 || len(m.Acc[0]) != 1 || len(m.Acc[2]) != 3 {
		t.Fatal("triangular matrix shape wrong")
	}
}

func TestAvgAccuracy(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 0.8)
	m.Set(1, 0, 0.6)
	m.Set(1, 1, 0.9)
	if got := m.AvgAccuracy(0); got != 0.8 {
		t.Fatalf("AvgAccuracy(0) = %v", got)
	}
	if got := m.AvgAccuracy(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AvgAccuracy(1) = %v", got)
	}
}

func TestForgettingRateDefinition(t *testing.T) {
	// Task 0 at 0.8 right after learning, 0.6 after task 1:
	// forgetting = (0.8−0.6)/0.8 = 0.25.
	m := NewMatrix(2)
	m.Set(0, 0, 0.8)
	m.Set(1, 0, 0.6)
	m.Set(1, 1, 0.9)
	if got := m.ForgettingRate(1); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("ForgettingRate = %v, want 0.25", got)
	}
}

func TestForgettingRateBounds(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 0.5)
	m.Set(1, 0, 0.7) // backward transfer: clamp to 0
	if got := m.ForgettingRate(1); got != 0 {
		t.Fatalf("negative forgetting must clamp: %v", got)
	}
	m.Set(1, 0, -0.1) // impossible, but clamp guards anyway
	if got := m.ForgettingRate(1); got != 1 {
		t.Fatalf("overflow forgetting must clamp to 1: %v", got)
	}
	if m.ForgettingRate(0) != 0 {
		t.Fatal("first task has no forgetting")
	}
}

func TestForgettingRateSkipsZeroBase(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(1, 0, 0)
	if got := m.ForgettingRate(1); got != 0 {
		t.Fatalf("zero-accuracy base must be skipped: %v", got)
	}
}

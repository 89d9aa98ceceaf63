package convergence

import (
	"math"
	"testing"

	"repro/internal/opt"
)

func TestLocalBoundDecaysWithInvSqrtSchedule(t *testing.T) {
	// With η_r = c/√r, the Lemma 1 bound is O(1/√r): it must decay toward
	// zero as r grows.
	s := opt.InvSqrt{Base: 0.1}
	prev := math.Inf(1)
	for _, r := range []int{1, 10, 100, 10000, 1000000} {
		b := LocalBound(1, 1, s.LR(r), r)
		if b >= prev {
			t.Fatalf("bound must decrease: r=%d b=%v prev=%v", r, b, prev)
		}
		prev = b
	}
	if prev > 0.01 {
		t.Fatalf("bound at r=10^6 still %v", prev)
	}
}

func TestLocalBoundDegenerate(t *testing.T) {
	if !math.IsInf(LocalBound(1, 1, 0, 10), 1) {
		t.Fatal("zero lr must give infinite bound")
	}
	if !math.IsInf(LocalBound(1, 1, 0.1, 0), 1) {
		t.Fatal("r=0 must give infinite bound")
	}
}

func TestGlobalBoundFiniteAndShrinkingInDist(t *testing.T) {
	p := GlobalBoundParams{Mu: 1, L: 4, Omega: 0.1, SigmaP: 0.01, Lambda: 0.1, DistSq: 1}
	b1 := GlobalBound(p, 10)
	if math.IsInf(b1, 1) || b1 <= 0 {
		t.Fatalf("bound %v", b1)
	}
	p.DistSq = 0.1
	b2 := GlobalBound(p, 10)
	if b2 >= b1 {
		t.Fatal("closer iterate must give smaller bound")
	}
}

func TestGlobalBoundNonIIDSeverity(t *testing.T) {
	// Larger Ω (more severe non-IID) must worsen the bound — the formal
	// counterpart of the negative-transfer discussion.
	p := GlobalBoundParams{Mu: 1, L: 4, Omega: 0.1, SigmaP: 0.01, Lambda: 0.1, DistSq: 0.5}
	low := GlobalBound(p, 50)
	p.Omega = 1.0
	high := GlobalBound(p, 50)
	if high <= low {
		t.Fatalf("bound must grow with Ω: %v vs %v", low, high)
	}
}

func TestGlobalBoundDegenerate(t *testing.T) {
	if !math.IsInf(GlobalBound(GlobalBoundParams{}, 5), 1) {
		t.Fatal("µ=0 must give infinite bound")
	}
}

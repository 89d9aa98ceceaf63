package nn

import (
	"testing"

	"repro/internal/tensor"
)

// convFixture builds a conv layer and batch used by the determinism and
// allocation tests.
func convFixture(seed uint64) (*Conv2D, *tensor.Tensor, *tensor.Tensor) {
	return convFixtureOf(seed, 8, 16, 10, 6, 1)
}

// convFixtureOf builds a 3×3 same-padding conv layer inC→outC with bias, a
// batch of n side×side images and an output gradient. density < 1 keeps
// only that share of the weights, as a knowledge model does.
func convFixtureOf(seed uint64, inC, outC, side, n int, density float64) (*Conv2D, *tensor.Tensor, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	l := NewConv2D("c", inC, outC, 3, 1, 1, 1, true, rng)
	sparsify(l.W.W.Data, density, rng)
	x := tensor.Randn(rng, 1, n, inC, side, side)
	y := l.Forward(x, true)
	dout := tensor.Randn(rng, 1, y.Shape...)
	return l, x, dout
}

// TestConvDeterministicAcrossThreads requires conv forward and backward to
// produce bitwise-identical outputs, input gradients, and weight gradients
// for every kernel-thread setting: on an early-stage shape, on the last
// ResNet18 stage (64 channels at 2×2, where N·spatial is 32 and dW's k with
// it), with ρ = 10 % weights, which take Gemm's sparse-A route in the
// forward and input-gradient products, and with every other input channel and
// every other row of dY dead, where the lowering is split over the live
// channels alone and the products are compact.
func TestConvDeterministicAcrossThreads(t *testing.T) {
	defer tensor.SetKernelThreads(0)
	fixtures := map[string]struct {
		inC, outC, side, n int
		density            float64
		halfDead           bool
	}{
		"early stage":           {8, 16, 10, 6, 1, false},
		"late stage":            {64, 64, 2, 8, 1, false},
		"early stage sparse":    {8, 16, 10, 6, 0.10, false},
		"late stage sparse":     {64, 64, 2, 8, 0.10, false},
		"early stage half dead": {8, 16, 10, 6, 1, true},
		"late stage half dead":  {64, 64, 2, 8, 0.10, true},
	}
	for name, f := range fixtures {
		t.Run(name, func(t *testing.T) {
			type snap struct{ y, dx, dw, db []float32 }
			var ref *snap
			for _, threads := range []int{1, 4, 16} {
				tensor.SetKernelThreads(threads)
				l, x, dout := convFixtureOf(7, f.inC, f.outC, f.side, f.n, f.density)
				if f.halfDead {
					killChannels(x, everyOther(f.inC)...)
					killChannels(dout, everyOther(f.outC)...)
				}
				ZeroGrads(l.Params())
				y := l.Forward(x, true)
				dx := l.Backward(dout)
				if f.halfDead && (len(l.liveIn) != f.inC/2 || len(l.liveOut) != f.outC/2) {
					t.Fatalf("threads=%d: %d live inputs and %d live dY rows, want half of each", threads, len(l.liveIn), len(l.liveOut))
				}
				s := &snap{
					y:  append([]float32(nil), y.Data...),
					dx: append([]float32(nil), dx.Data...),
					dw: append([]float32(nil), l.W.Grad.Data...),
					db: append([]float32(nil), l.B.Grad.Data...),
				}
				if ref == nil {
					ref = s
					continue
				}
				for name, pair := range map[string][2][]float32{
					"y": {ref.y, s.y}, "dx": {ref.dx, s.dx}, "dw": {ref.dw, s.dw}, "db": {ref.db, s.db},
				} {
					for i := range pair[0] {
						if pair[0][i] != pair[1][i] {
							t.Fatalf("threads=%d: %s[%d] = %v, want %v", threads, name, i, pair[1][i], pair[0][i])
						}
					}
				}
			}
		})
	}
}

// everyOther returns the odd channels of [0, c).
func everyOther(c int) []int {
	var odd []int
	for ch := 1; ch < c; ch += 2 {
		odd = append(odd, ch)
	}
	return odd
}

// TestConvSteadyStateAllocFree verifies the satellite acceptance criterion:
// after warm-up, conv forward + backward performs no heap allocations on the
// single-threaded path (multi-threaded runs allocate only the worker
// closures) — on a batch with every channel alive, and on a layer that sees
// half-dead and fully alive batches turn about, whose live lists, gathered
// weights and tap mask are the layer's own and made once.
func TestConvSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse and instruments allocations")
	}
	defer tensor.SetKernelThreads(0)
	tensor.SetKernelThreads(1)
	l, x, dout := convFixture(9)
	xDead, doutDead := x.Clone(), dout.Clone()
	killChannels(xDead, everyOther(l.InC)...)
	killChannels(doutDead, everyOther(l.OutC)...)
	for name, batches := range map[string][][2]*tensor.Tensor{
		"alive":      {{x, dout}},
		"turn about": {{xDead, doutDead}, {x, dout}},
	} {
		step := func() {
			for _, b := range batches {
				ZeroGrads(l.Params())
				l.Forward(b[0], true)
				l.Backward(b[1])
			}
		}
		for i := 0; i < 3; i++ { // warm the scratch buffers and the layer's own
			step()
		}
		if allocs := testing.AllocsPerRun(20, step); allocs > 0.5 {
			t.Fatalf("%s: conv forward+backward allocates %.1f objects/op in steady state, want 0", name, allocs)
		}
	}
}

// TestLinearSteadyStateAllocFree checks the dense layer the same way.
func TestLinearSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse and instruments allocations")
	}
	defer tensor.SetKernelThreads(0)
	tensor.SetKernelThreads(1)
	rng := tensor.NewRNG(11)
	l := NewLinear("fc", 64, 32, rng)
	x := tensor.Randn(rng, 1, 16, 64)
	y := l.Forward(x, true)
	dout := tensor.Randn(rng, 1, y.Shape...)
	for i := 0; i < 3; i++ {
		ZeroGrads(l.Params())
		l.Forward(x, true)
		l.Backward(dout)
	}
	allocs := testing.AllocsPerRun(20, func() {
		ZeroGrads(l.Params())
		l.Forward(x, true)
		l.Backward(dout)
	})
	if allocs > 0.5 {
		t.Fatalf("linear forward+backward allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestScratchReuseKeepsGradientsCorrect runs two training iterations through
// a small conv net and checks the second iteration against freshly-built
// layers given identical inputs: buffer reuse must not leak state between
// iterations.
func TestScratchReuseKeepsGradientsCorrect(t *testing.T) {
	build := func() (*Conv2D, *Linear) {
		rng := tensor.NewRNG(21)
		return NewConv2D("c", 3, 4, 3, 1, 1, 1, false, rng), NewLinear("fc", 4*6*6, 5, rng)
	}
	rng := tensor.NewRNG(22)
	x1 := tensor.Randn(rng, 1, 2, 3, 6, 6)
	x2 := tensor.Randn(rng, 1, 2, 3, 6, 6)
	d1 := tensor.Randn(rng, 1, 2, 5)
	d2 := tensor.Randn(rng, 1, 2, 5)

	run := func(c *Conv2D, fc *Linear, x, d *tensor.Tensor) ([]float32, []float32) {
		ZeroGrads(c.Params())
		ZeroGrads(fc.Params())
		h := c.Forward(x, true)
		fc.Forward(h, true)
		dh := fc.Backward(d)
		dx := c.Backward(dh.Reshape(2, 4, 6, 6))
		grads := FlattenGrads(append(c.Params(), fc.Params()...))
		return append([]float32(nil), dx.Data...), grads
	}

	// Reused-layer pipeline: iteration 1 then 2.
	cA, fA := build()
	run(cA, fA, x1, d1)
	dxA, gA := run(cA, fA, x2, d2)

	// Fresh layers seeing only iteration 2.
	cB, fB := build()
	dxB, gB := run(cB, fB, x2, d2)

	for i := range gA {
		if gA[i] != gB[i] {
			t.Fatalf("grad[%d] differs after reuse: %v vs %v", i, gA[i], gB[i])
		}
	}
	for i := range dxA {
		if dxA[i] != dxB[i] {
			t.Fatalf("dx[%d] differs after reuse: %v vs %v", i, dxA[i], dxB[i])
		}
	}
}

package opt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// InvSqrt decays as base / sqrt(r): the O(r^-1/2) schedule Theorem 1
// requires for local weights; no client trains with it.
type InvSqrt struct{ Base float64 }

// LR returns base/sqrt(iter).
func (s InvSqrt) LR(iter int) float64 {
	if iter < 1 {
		iter = 1
	}
	return s.Base / math.Sqrt(float64(iter))
}

func TestSchedules(t *testing.T) {
	c := Const{Rate: 0.01}
	if c.LR(1) != 0.01 || c.LR(100) != 0.01 {
		t.Fatal("Const schedule must not vary")
	}
	s := InvSqrt{Base: 1}
	if math.Abs(s.LR(4)-0.5) > 1e-12 {
		t.Fatalf("InvSqrt(4) = %v", s.LR(4))
	}
	if s.LR(0) != s.LR(1) {
		t.Fatal("iter < 1 must clamp")
	}
	inv := Inv{Base: 1, Decay: 1}
	if math.Abs(inv.LR(3)-0.25) > 1e-12 {
		t.Fatalf("Inv(3) = %v", inv.LR(3))
	}
}

// TestConvergenceRates checks the Theorem-1 constraints: InvSqrt decays as
// O(r^-1/2), Inv as O(r^-1).
func TestConvergenceRates(t *testing.T) {
	s := InvSqrt{Base: 1}
	ratio := s.LR(400) / s.LR(100)
	if math.Abs(ratio-0.5) > 1e-9 {
		t.Fatalf("InvSqrt quadrupling r should halve lr: ratio %v", ratio)
	}
	v := Inv{Base: 1, Decay: 1}
	r1, r2 := v.LR(1000), v.LR(2000)
	if math.Abs(r1/r2-2) > 0.01 {
		t.Fatalf("Inv doubling r should halve lr asymptotically: %v", r1/r2)
	}
	// Monotone decrease — the surrogate for the bound shrinking.
	for _, sch := range []Schedule{s, v} {
		for r := 1; r < 100; r++ {
			if sch.LR(r+1) > sch.LR(r) {
				t.Fatal("schedule must be non-increasing")
			}
		}
	}
}

func TestSGDStep(t *testing.T) {
	w, g := []float32{1, 2}, []float32{1, -1}
	o := NewSGD(Const{Rate: 0.5}, 0, 0)
	o.Step(w, g)
	if w[0] != 0.5 || w[1] != 2.5 {
		t.Fatalf("after step: %v", w)
	}
	if o.iter != 1 {
		t.Fatalf("iter = %d", o.iter)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	w, g := []float32{0}, []float32{1}
	o := NewSGD(Const{Rate: 1}, 0.9, 0)
	o.Step(w, g) // v=1, w=-1
	o.Step(w, g) // v=1.9, w=-2.9
	if math.Abs(float64(w[0])+2.9) > 1e-6 {
		t.Fatalf("momentum w = %v, want -2.9", w[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	w := []float32{2}
	o := NewSGD(Const{Rate: 0.1}, 0, 0.5)
	o.Step(w, []float32{0}) // grad = 0 + 0.5*2 = 1 → w = 2 - 0.1 = 1.9
	if math.Abs(float64(w[0])-1.9) > 1e-6 {
		t.Fatalf("decay w = %v, want 1.9", w[0])
	}
}

func TestSGDLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a gradient of another length must panic")
		}
	}()
	NewSGD(Const{Rate: 1}, 0, 0).Step(make([]float32, 3), make([]float32, 4))
}

func TestStepMasked(t *testing.T) {
	w, g := []float32{1, 1, 1}, []float32{1, 1, 1}
	o := NewSGD(Const{Rate: 1}, 0, 0)
	o.StepMasked(w, g, []bool{true, false, true})
	want := []float32{0, 1, 0}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("masked step w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestStepMaskedNilMeansFull(t *testing.T) {
	w := []float32{1}
	o := NewSGD(Const{Rate: 1}, 0, 0)
	o.StepMasked(w, []float32{1}, nil)
	if w[0] != 0 {
		t.Fatal("nil mask must behave like Step")
	}
}

// refSGD is the per-Param optimiser the vector form replaced: one velocity
// slice per parameter, and a mask over the parameters' concatenation.
type refSGD struct {
	o        *SGD
	velocity [][]float32
}

func (r *refSGD) step(params []*nn.Param, mask []bool) {
	o := r.o
	o.iter++
	if mask != nil {
		lr := float32(o.Sched.LR(o.iter))
		off := 0
		for _, p := range params {
			g := p.Grad.Data
			w := p.W.Data
			for j := range w {
				if mask[off+j] {
					w[j] -= lr * (g[j] + float32(o.WeightDecay)*w[j])
				}
			}
			off += len(w)
		}
		return
	}
	lr := o.Sched.LR(o.iter)
	if r.velocity == nil && o.Momentum != 0 {
		r.velocity = make([][]float32, len(params))
		for i, p := range params {
			r.velocity[i] = make([]float32, p.W.Len())
		}
	}
	for i, p := range params {
		g := p.Grad.Data
		w := p.W.Data
		if o.Momentum != 0 {
			v := r.velocity[i]
			m := float32(o.Momentum)
			for j := range w {
				gj := g[j] + float32(o.WeightDecay)*w[j]
				v[j] = m*v[j] + gj
				w[j] -= float32(lr) * v[j]
			}
		} else {
			for j := range w {
				gj := g[j] + float32(o.WeightDecay)*w[j]
				w[j] -= float32(lr) * gj
			}
		}
	}
}

// TestSGDMatchesPerParamReference holds the one-vector Step and StepMasked to
// the retired per-Param loop bit for bit, over several steps so the velocity
// carries, with fresh gradients every step.
func TestSGDMatchesPerParamReference(t *testing.T) {
	sizes := []int{5, 1, 17, 64, 3}
	for _, momentum := range []float64{0, 0.9} {
		for _, decay := range []float64{0, 5e-4} {
			for _, masked := range []bool{false, true} {
				rng := tensor.NewRNG(31)
				var params []*nn.Param
				for i, n := range sizes {
					params = append(params, &nn.Param{Name: fmt.Sprint("p", i), W: tensor.Randn(rng, 1, n), Grad: tensor.New(n)})
				}
				w := nn.FlattenParams(params)
				var mask []bool
				if masked {
					mask = make([]bool, len(w))
					for i := range mask {
						mask[i] = i%3 != 1
					}
				}
				vec := NewSGD(InvSqrt{Base: 0.3}, momentum, decay)
				ref := &refSGD{o: NewSGD(InvSqrt{Base: 0.3}, momentum, decay)}
				for step := 0; step < 3; step++ {
					for _, p := range params {
						rng.FillNorm(p.Grad.Data, 1)
					}
					vec.StepMasked(w, nn.FlattenGrads(params), mask)
					ref.step(params, mask)
					for i, want := range nn.FlattenParams(params) {
						if math.Float32bits(w[i]) != math.Float32bits(want) {
							t.Fatalf("momentum %v decay %v masked %v step %d: w[%d] = %v, per-Param %v",
								momentum, decay, masked, step, i, w[i], want)
						}
					}
				}
			}
		}
	}
}

// TestSGDStepsMatchScalarLoops holds Step (with and without momentum and
// weight decay) and StepMasked to the loops they ran before the update moved
// into internal/tensor's kernels, bit for bit over several steps, at lengths
// that leave a remainder past the kernels' eight-float steps. The loops round
// each product explicitly before its add, as they computed on amd64, so a
// kernel fallback a compiler fused (as Go does on arm64) fails here.
func TestSGDStepsMatchScalarLoops(t *testing.T) {
	for _, n := range []int{1, 13, 4099} {
		for _, momentum := range []float64{0, 0.9} {
			for _, decay := range []float64{0, 5e-4} {
				rng := tensor.NewRNG(uint64(n))
				w, g := make([]float32, n), make([]float32, n)
				rng.FillNorm(w, 1)
				want, vel := append([]float32(nil), w...), make([]float32, n)
				mask := make([]bool, n)
				for i := range mask {
					mask[i] = i%4 != 1
				}
				o := NewSGD(InvSqrt{Base: 0.3}, momentum, decay)
				for step := 1; step <= 4; step++ {
					rng.FillNorm(g, 1)
					lr, wd := float32(o.Sched.LR(step)), float32(decay)
					if step%2 == 0 {
						o.StepMasked(w, g, mask)
						for j := range want {
							if mask[j] {
								want[j] -= float32(lr * (g[j] + float32(wd*want[j])))
							}
						}
					} else {
						o.Step(w, g)
						for j := range want {
							gj := g[j] + float32(wd*want[j])
							if momentum != 0 {
								vel[j] = float32(float32(momentum)*vel[j]) + gj
								gj = vel[j]
							}
							want[j] -= float32(lr * gj)
						}
					}
					for j := range want {
						if math.Float32bits(w[j]) != math.Float32bits(want[j]) {
							t.Fatalf("n %d momentum %v decay %v step %d: w[%d] = %v, the scalar loop gives %v",
								n, momentum, decay, step, j, w[j], want[j])
						}
					}
				}
			}
		}
	}
}

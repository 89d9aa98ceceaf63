package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// fma32 is fma(a, b, c) rounded once to float32. The product of two float32s
// is exact in float64, so math.FMA's sum is the only rounding to float64; the
// second rounding, to float32, can then land on a float32 midpoint that the
// exact sum was not on, which the exact remainder of that sum (TwoSum) settles.
func fma32(a, b, c float32) float32 {
	p, cf := float64(a)*float64(b), float64(c)
	s := math.FMA(float64(a), float64(b), cf)
	t := s - p
	e := (p - (s - t)) + (cf - t) // s + e == a·b + c exactly
	f := float32(s)
	if e == 0 || float64(f) == s {
		return f
	}
	g := math.Nextafter32(f, float32(math.Copysign(math.Inf(1), s-float64(f))))
	if (float64(f)+float64(g))/2 != s {
		return f // s is no midpoint: both roundings agree
	}
	if (e > 0) == (g > f) {
		return g
	}
	return f
}

// gemmFuses reports whether tensor.Gemm's products above its direct-loop size
// round a·b + c once (the AVX2 + FMA kernels) rather than twice (the plain
// loops of a machine without them): fma(1+2⁻¹², 1+2⁻¹², −1) keeps the 2⁻²⁴
// that a rounded product loses.
func gemmFuses() bool {
	const n = 1 << 15
	a := []float32{1 + 1.0/4096}
	b, c := make([]float32, n), make([]float32, n)
	for j := range b {
		b[j], c[j] = a[0], -1
	}
	tensor.Gemm(c, a, b, 1, 1, n, false, false)
	return c[0] != 1.0/2048
}

// chainWeightGrad is the weight gradient of the conv l for the batch x and the
// output gradient dout by its definition: per element of W, one multiply-add
// chain over the N·spatial output positions in order — image, then row, then
// column — onto zero, each step rounded as step does, then added to grad0.
func chainWeightGrad(l *Conv2D, x, dout *tensor.Tensor, grad0 []float32, step func(a, b, c float32) float32) []float32 {
	n, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := dout.Shape[2], dout.Shape[3]
	gIn, gOut, kk := l.InC/l.Groups, l.OutC/l.Groups, l.K*l.K
	fanIn := gIn * kk
	want := append([]float32(nil), grad0...)
	for oc := 0; oc < l.OutC; oc++ {
		for t := 0; t < fanIn; t++ {
			ch := oc/gOut*gIn + t/kk
			ky, kx := t%kk/l.K, t%l.K
			var s float32
			for i := 0; i < n; i++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						var a float32
						if iy, ix := oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad; iy >= 0 && iy < h && ix >= 0 && ix < w {
							a = x.Data[((ch*n+i)*h+iy)*w+ix]
						}
						s = step(a, dout.Data[((oc*n+i)*outH+oy)*outW+ox], s)
					}
				}
			}
			want[oc*fanIn+t] += s
		}
	}
	return want
}

// TestConvWeightGradIsOneChain pins the weight gradient's arithmetic: every
// element of dW that a Conv2D adds into W.Grad is one fused multiply-add chain
// over the N·spatial output positions in order, started from zero, and then
// added to the incoming gradient — bit for bit, whether the layer computes it
// whole or compact (dead input channels, dead rows of dY) and at kernel widths
// 1, 2 and 4. The shapes are the stem and the four stages of the CI-scale
// ResNet18 at batch 8 and 16 (N·spatial up to 4096, the longest chain a
// training step runs), a grouped and a depthwise convolution; every whole
// product is large enough for the fused kernels. A machine without them runs
// plain loops, and the reference rounds each product and each sum instead.
func TestConvWeightGradIsOneChain(t *testing.T) {
	step := fma32
	if !gemmFuses() {
		step = func(a, b, c float32) float32 { return c + float32(a*b) }
	}
	type shape struct {
		name                    string
		inC, outC, groups, side int
		deadIn, deadOut         [][]int
	}
	shapes := []shape{
		{"stem", 3, 8, 1, 16, [][]int{nil, {1}}, [][]int{nil, allBut(8, 4), allBut(8, 2, 6)}},
		{"stage1", 8, 8, 1, 16, [][]int{nil, allBut(8, 3)}, [][]int{nil, allBut(8, 0, 7)}},
		{"stage2", 16, 16, 1, 8, [][]int{nil}, [][]int{nil}},
		{"stage3", 32, 32, 1, 4, [][]int{nil}, [][]int{nil}},
		{"stage4", 64, 64, 1, 2, [][]int{nil, allBut(64, 5, 9, 40)}, [][]int{nil, allBut(64, 1, 2, 63), allBut(64)}},
		{"grouped", 16, 16, 4, 8, [][]int{nil}, [][]int{nil}},
		{"depthwise", 8, 8, 8, 16, [][]int{nil}, [][]int{nil}},
	}
	batches := []int{8, 16}
	if testing.Short() {
		batches = batches[:1]
	}
	for _, sh := range shapes {
		for _, n := range batches {
			rng := tensor.NewRNG(uint64(61 + sh.inC + n))
			l := bound(NewConv2D("c", sh.inC, sh.outC, 3, 1, 1, sh.groups, false), rng)
			if vol := sh.outC / sh.groups * sh.inC / sh.groups * 9 * n * sh.side * sh.side; vol <= 16*1024 {
				t.Fatalf("%s: whole product volume %d is under the direct-loop size; the reference would not apply", sh.name, vol)
			}
			grad0 := make([]float32, l.W.Grad.Len())
			rng.FillNorm(grad0, 1)
			x0 := tensor.Randn(rng, 1, sh.inC, n, sh.side, sh.side)
			dout0 := tensor.Randn(rng, 1, l.Forward(x0, true).Shape...)
			for _, deadIn := range sh.deadIn {
				for _, deadOut := range sh.deadOut {
					x, dout := x0.Clone(), dout0.Clone()
					killChannels(x, deadIn...)
					killChannels(dout, deadOut...)
					want := chainWeightGrad(l, x, dout, grad0, step)
					for _, threads := range []int{1, 2, 4} {
						t.Run(fmt.Sprintf("%s/N=%d/dead=%d,%d/threads=%d", sh.name, n, len(deadIn), len(deadOut), threads), func(t *testing.T) {
							prev := tensor.SetKernelThreads(threads)
							defer tensor.SetKernelThreads(prev)
							copy(l.W.Grad.Data, grad0)
							l.Forward(x, true)
							l.BackwardParamsOnly(dout)
							for i, w := range want {
								if g := l.W.Grad.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
									t.Fatalf("dW[%d] = %v (%#08x), the chain gives %v (%#08x)", i, g, math.Float32bits(g), w, math.Float32bits(w))
								}
							}
						})
					}
				}
			}
		}
	}
}

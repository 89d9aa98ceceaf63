package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// naiveConv is the convolution written from its definition — seven nested
// loops, float64 accumulation, no lowering — and its three gradients. It is
// the reference the batch-wide im2col + GEMM lowering is held to.
type naiveConv struct {
	inC, outC, k, stride, pad, groups int
	w, b                              []float32 // (outC, inC/groups, k, k), (outC)
}

// forward returns y (outC, n, outH, outW) for x (inC, n, h, w).
func (c naiveConv) forward(x []float32, n, h, w int) (y []float64, outH, outW int) {
	outH, outW = tensor.ConvOutSize(h, c.k, c.stride, c.pad), tensor.ConvOutSize(w, c.k, c.stride, c.pad)
	y = make([]float64, n*c.outC*outH*outW)
	c.visit(n, h, w, func(i, oc, oy, ox, xi, wi int) {
		y[((oc*n+i)*outH+oy)*outW+ox] += float64(x[xi]) * float64(c.w[wi])
	})
	for i := range y {
		y[i] += float64(c.b[i/(n*outH*outW)])
	}
	return y, outH, outW
}

// backward returns dX, dW and dB for the output gradient dy.
func (c naiveConv) backward(x, dy []float32, n, h, w int) (dx, dw, db []float64) {
	outH, outW := tensor.ConvOutSize(h, c.k, c.stride, c.pad), tensor.ConvOutSize(w, c.k, c.stride, c.pad)
	dx = make([]float64, len(x))
	dw = make([]float64, len(c.w))
	db = make([]float64, c.outC)
	c.visit(n, h, w, func(i, oc, oy, ox, xi, wi int) {
		g := float64(dy[((oc*n+i)*outH+oy)*outW+ox])
		dx[xi] += g * float64(c.w[wi])
		dw[wi] += g * float64(x[xi])
	})
	for i, g := range dy {
		db[i/(n*outH*outW)] += float64(g)
	}
	return dx, dw, db
}

// visit calls fn once per multiply of the convolution: output element
// (i, oc, oy, ox) times the in-bounds input index xi and weight index wi.
func (c naiveConv) visit(n, h, w int, fn func(i, oc, oy, ox, xi, wi int)) {
	outH, outW := tensor.ConvOutSize(h, c.k, c.stride, c.pad), tensor.ConvOutSize(w, c.k, c.stride, c.pad)
	gIn, gOut := c.inC/c.groups, c.outC/c.groups
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.outC; oc++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					for ci := 0; ci < gIn; ci++ {
						ic := oc/gOut*gIn + ci
						for ky := 0; ky < c.k; ky++ {
							for kx := 0; kx < c.k; kx++ {
								iy, ix := oy*c.stride+ky-c.pad, ox*c.stride+kx-c.pad
								if iy < 0 || iy >= h || ix < 0 || ix >= w {
									continue
								}
								fn(i, oc, oy, ox, ((ic*n+i)*h+iy)*w+ix, ((oc*gIn+ci)*c.k+ky)*c.k+kx)
							}
						}
					}
				}
			}
		}
	}
}

// TestConvMatchesNaiveReference compares Conv2D — forward, dX, dW and dB —
// with the direct-loop reference over groups, stride, padding, kernel size
// and batch size, on odd feature maps (7×5) so that N·spatial is rarely a
// multiple of 4 or 8 and the GEMM's column and k tails are exercised.
//
// Tolerance: the layer accumulates in float32 over at most
// k = N·spatial = 8·35 = 280 terms of magnitude ≈ 1 (dW) where the reference
// uses float64, so the error is a few hundred float32 ulps of the largest
// partial sum; 1e-4·(1 + |want|) leaves an order of magnitude of headroom
// and is three orders tighter than any indexing mistake would produce.
func TestConvMatchesNaiveReference(t *testing.T) {
	const inC, outC, h, w = 4, 4, 7, 5
	for _, groups := range []int{1, 2, inC} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, k := range []int{1, 3} {
					for _, n := range []int{1, 3, 8} {
						name := fmt.Sprintf("groups=%d/stride=%d/pad=%d/K=%d/N=%d", groups, stride, pad, k, n)
						t.Run(name, func(t *testing.T) {
							rng := tensor.NewRNG(uint64(1 + groups + 10*stride + 100*pad + 1000*k + 10000*n))
							l := bound(NewConv2D("c", inC, outC, k, stride, pad, groups, true), rng)
							rng.FillNorm(l.B.W.Data, 1)
							ref := naiveConv{inC, outC, k, stride, pad, groups, l.W.W.Data, l.B.W.Data}
							x := tensor.Randn(rng, 1, inC, n, h, w)

							y := l.Forward(x, true)
							wantY, outH, outW := ref.forward(x.Data, n, h, w)
							if y.Shape[0] != outC || y.Shape[1] != n || y.Shape[2] != outH || y.Shape[3] != outW {
								t.Fatalf("output shape %v, want (%d,%d,%d,%d)", y.Shape, outC, n, outH, outW)
							}
							dy := tensor.Randn(rng, 1, y.Shape...)
							ZeroGrads(l.Params())
							dx := l.Backward(dy)
							wantDX, wantDW, wantDB := ref.backward(x.Data, dy.Data, n, h, w)

							for _, cmp := range []struct {
								what string
								got  []float32
								want []float64
							}{{"y", y.Data, wantY}, {"dx", dx.Data, wantDX}, {"dw", l.W.Grad.Data, wantDW}, {"db", l.B.Grad.Data, wantDB}} {
								if len(cmp.got) != len(cmp.want) {
									t.Fatalf("%s has %d elements, want %d", cmp.what, len(cmp.got), len(cmp.want))
								}
								for i, want := range cmp.want {
									if d := math.Abs(float64(cmp.got[i]) - want); d > 1e-4*(1+math.Abs(want)) {
										t.Fatalf("%s[%d] = %v, want %v (off by %.3g)", cmp.what, i, cmp.got[i], want, d)
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

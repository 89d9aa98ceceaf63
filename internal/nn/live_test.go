package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// killChannels zeroes the given channels of a CNHW batch, in every image.
func killChannels(x *tensor.Tensor, chans ...int) {
	run := x.Len() / x.Shape[0]
	for _, ch := range chans {
		clear(x.Data[ch*run : (ch+1)*run])
	}
}

// allBut returns the channels of [0, c) that are not in keep.
func allBut(c int, keep ...int) []int {
	var out []int
	for ch := 0; ch < c; ch++ {
		kept := false
		for _, k := range keep {
			kept = kept || k == ch
		}
		if !kept {
			out = append(out, ch)
		}
	}
	return out
}

// convPass is everything one forward + backward of a Conv2D produces.
type convPass struct{ y, dx, dw, db []float32 }

// passOf runs l forward on x and backward on dout, with dW and dB accumulated
// onto the non-zero gradients grad0 holds.
func passOf(l *Conv2D, x, dout *tensor.Tensor, grad0 [][]float32) convPass {
	for i, p := range l.Params() {
		copy(p.Grad.Data, grad0[i])
	}
	y := l.Forward(x, true)
	dx := l.Backward(dout)
	p := convPass{
		y:  append([]float32(nil), y.Data...),
		dx: append([]float32(nil), dx.Data...),
		dw: append([]float32(nil), l.W.Grad.Data...),
	}
	if l.Bias {
		p.db = append([]float32(nil), l.B.Grad.Data...)
	}
	return p
}

// sameBits fails unless got and want agree bit for bit (two NaNs agree).
func (got convPass) sameBits(t *testing.T, want convPass) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want []float32
	}{{"y", got.y, want.y}, {"dx", got.dx, want.dx}, {"dw", got.dw, want.dw}, {"db", got.db, want.db}} {
		for i := range f.want {
			g, w := f.got[i], f.want[i]
			if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
				t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", f.name, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// TestConvLivenessIsBitwiseNeutral is the liveness contract: a Conv2D that
// leaves its dead channels out — lowers, multiplies and raises only the live
// ones — produces the output, the weight gradient (onto a non-zero Grad), the
// bias gradient and the input gradient of the same layer forced to take every
// channel as alive, bit for bit, at every kernel width. The forced layer is
// the one every fixed-seed trajectory and the benchmark's result_digest were
// recorded with.
//
// The shapes are the ones a compacted product changes something for: live
// counts of 1, 2, 3, 5 and 7 (9·live is then no multiple of four, so dW has
// columns left over from its groups of four), the stage-4 1×1 stride-2 shortcut at batch
// 8 (64·32·32 whole, but 64·6·32 with six live inputs, which is under the
// size where tensor.Gemm leaves its fused kernels), the 27-row stem (whose
// whole dW has three remainder columns, dead or alive with their channel), a
// 1×1 of six inputs (two remainder columns that live and die apart), and the
// empty sets: no live input (Y is the bias) and no live dY row
// (dX = 0, dW and dB untouched).
func TestConvLivenessIsBitwiseNeutral(t *testing.T) {
	type shape struct {
		name                               string
		inC, outC, k, stride, pad, side, n int
		bias                               bool
		deadIn, deadOut                    [][]int
	}
	shapes := []shape{
		{"3x3 stride 1", 8, 16, 3, 1, 1, 10, 6, true,
			[][]int{nil, {3}, allBut(8, 1, 2, 4, 6, 7), allBut(8, 0, 5, 7), allBut(8, 2, 7), allBut(8, 4), allBut(8)},
			[][]int{nil, allBut(16, 1, 6, 15), allBut(16)}},
		{"3x3 stride 2", 8, 16, 3, 2, 1, 8, 6, false,
			[][]int{nil, {0}, allBut(8, 0, 1, 2, 3, 7), allBut(8, 3, 4, 5), allBut(8, 7), allBut(8)},
			[][]int{nil, allBut(16, 0), allBut(16)}},
		{"stage-4 shortcut 1x1 stride 2", 32, 64, 1, 2, 0, 4, 8, false,
			[][]int{nil, allBut(32, 1, 5, 8, 13, 21, 30), allBut(32, 31), allBut(32, 3, 30, 31)},
			[][]int{nil, allBut(64, 2, 3, 5, 7, 11, 13), allBut(64)}},
		{"27-row stem", 3, 8, 3, 1, 1, 16, 8, false,
			[][]int{nil, {0}, {1}, {2}, {0, 1}, {1, 2}},
			[][]int{nil, allBut(8, 4)}},
		{"1x1 of six inputs", 6, 8, 1, 1, 0, 8, 6, true,
			[][]int{nil, {4}, {5}, {0, 5}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}},
			[][]int{nil, allBut(8, 3)}},
	}
	for _, sh := range shapes {
		for _, density := range []float64{1, 0.10} {
			for _, threads := range []int{1, 3, 4} {
				t.Run(fmt.Sprintf("%s/rho=%v/threads=%d", sh.name, density, threads), func(t *testing.T) {
					prev := tensor.SetKernelThreads(threads)
					defer tensor.SetKernelThreads(prev)
					rng := tensor.NewRNG(uint64(41 + sh.inC))
					l := bound(NewConv2D("c", sh.inC, sh.outC, sh.k, sh.stride, sh.pad, 1, sh.bias), rng)
					sparsify(l.W.W.Data, density, rng)
					if sh.bias {
						rng.FillNorm(l.B.W.Data, 1)
					}
					var grad0 [][]float32
					for _, p := range l.Params() {
						g := make([]float32, p.Grad.Len())
						rng.FillNorm(g, 1)
						grad0 = append(grad0, g)
					}
					x0 := tensor.Randn(rng, 1, sh.inC, sh.n, sh.side, sh.side)
					dout0 := tensor.Randn(rng, 1, l.Forward(x0, true).Shape...)
					for _, deadIn := range sh.deadIn {
						for _, deadOut := range sh.deadOut {
							x, dout := x0.Clone(), dout0.Clone()
							killChannels(x, deadIn...)
							killChannels(dout, deadOut...)
							got := passOf(l, x, dout, grad0)
							if in, out := sh.inC-len(deadIn), sh.outC-len(deadOut); len(l.liveIn) != in || len(l.liveOut) != out {
								t.Fatalf("dead in %v out %v: the layer saw %d live inputs and %d live dY rows, want %d and %d",
									deadIn, deadOut, len(l.liveIn), len(l.liveOut), in, out)
							}
							var want convPass
							WithAllLive(func() { want = passOf(l, x, dout, grad0) })
							if len(l.liveIn) != sh.inC || len(l.liveOut) != sh.outC {
								t.Fatal("the forced layer still left channels out: nothing was compared")
							}
							got.sameBits(t, want)
						}
					}
				})
			}
		}
	}
}

// TestConvNaNKeepsChannelAlive pins what dead means: every element == 0. A
// channel that is zero but for one NaN (or Inf) is alive and propagates as it
// always did; −0 is as dead as +0.
func TestConvNaNKeepsChannelAlive(t *testing.T) {
	rng := tensor.NewRNG(43)
	l := bound(NewConv2D("c", 4, 8, 3, 1, 1, 1, true), rng)
	grad0 := [][]float32{make([]float32, l.W.Grad.Len()), make([]float32, l.B.Grad.Len())}
	rng.FillNorm(grad0[0], 1)
	rng.FillNorm(grad0[1], 1)
	x := tensor.Randn(rng, 1, 4, 2, 6, 6)
	dout := tensor.Randn(rng, 1, l.Forward(x, true).Shape...)
	killChannels(x, 1, 2, 3)
	x.Data[(1*2+0)*36+7] = float32(math.NaN())           // channel 1, image 0
	x.Data[(2*2+1)*36+35] = float32(math.Inf(-1))        // channel 2, image 1, last pixel
	x.Data[(3*2+0)*36+4] = float32(math.Copysign(0, -1)) // channel 3: −0 only
	got := passOf(l, x, dout, grad0)
	if fmt.Sprint(l.liveIn) != "[0 1 2]" {
		t.Fatalf("live inputs %v, want [0 1 2]: NaN and Inf are alive, −0 is not", l.liveIn)
	}
	var want convPass
	WithAllLive(func() { want = passOf(l, x, dout, grad0) })
	got.sameBits(t, want)
	nans := 0
	for _, v := range got.y {
		if v != v {
			nans++
		}
	}
	if nans == 0 {
		t.Fatal("the NaN activation did not reach the output")
	}
}

package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// convShapes are the 3×3 same-padding convolutions the benchmarks time: the
// 16→32-channel layer of README's before/after table, then the four
// ResNet18 stages of the CI-scale model (3×16×16 input) that dominate a
// FedKNOW client's time. The late stages (spatial = 16 and 4) are the ones a
// per-image lowering served badly.
var convShapes = []struct{ inC, outC, side int }{
	{16, 32, 16},
	{8, 8, 16}, {16, 16, 8}, {32, 32, 4}, {64, 64, 2},
}

// benchConvShapes runs fn once per shape and batch size with a warmed layer;
// density < 1 keeps only that share of the weights (a knowledge model's ρ),
// which routes the forward GEMM through the sparse-A kernel. dead is the share
// of input channels and of rows of dout that are exactly zero across the
// batch, as they are behind the BatchNorm of a knowledge model (whose dropped
// scales leave 1–6 channels of 8–64 alive): a ρ = 10 % layer fed a dense
// random input is a case no knowledge model produces.
func benchConvShapes(b *testing.B, density, dead float64, fn func(b *testing.B, l *Conv2D, x, dout *tensor.Tensor)) {
	for _, sh := range convShapes {
		for _, n := range []int{8, 16} {
			b.Run(fmt.Sprintf("%dto%dch@%dx%d/N=%d", sh.inC, sh.outC, sh.side, sh.side, n), func(b *testing.B) {
				rng := tensor.NewRNG(uint64(sh.outC*100 + n))
				l := NewConv2D("c", sh.inC, sh.outC, 3, 1, 1, 1, false, rng)
				sparsify(l.W.W.Data, density, rng)
				x := tensor.Randn(rng, 1, n, sh.inC, sh.side, sh.side)
				dout := tensor.Randn(rng, 1, l.Forward(x, true).Shape...)
				killChannels(x, firstShare(sh.inC, dead)...)
				killChannels(dout, firstShare(sh.outC, dead)...)
				l.Forward(x, true)
				b.ResetTimer()
				fn(b, l, x, dout)
			})
		}
	}
}

// firstShare returns the first share·c channels of [0, c).
func firstShare(c int, share float64) []int {
	chans := make([]int, int(share*float64(c)))
	for i := range chans {
		chans[i] = i
	}
	return chans
}

// sparsify zeroes all but a density share of w, chosen at random.
func sparsify(w []float32, density float64, rng *tensor.RNG) {
	if density >= 1 {
		return
	}
	for i := range w {
		if rng.Float64() >= density {
			w[i] = 0
		}
	}
}

func benchForward(b *testing.B, l *Conv2D, x, _ *tensor.Tensor) {
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func benchBackward(b *testing.B, l *Conv2D, _, dout *tensor.Tensor) {
	for i := 0; i < b.N; i++ {
		ZeroGrads(l.Params())
		l.Backward(dout)
	}
}

func BenchmarkConvForward(b *testing.B) { benchConvShapes(b, 1, 0, benchForward) }

// BenchmarkConvForwardSparse is the knowledge-model forward: ρ = 10 % of the
// weights retained over zeros, on a dense input and (dead=0.75) on one with
// three channels in four dead, which is what such a model's layers are fed.
func BenchmarkConvForwardSparse(b *testing.B) {
	benchConvShapes(b, 0.10, 0, benchForward)
	b.Run("dead=0.75", func(b *testing.B) { benchConvShapes(b, 0.10, 0.75, benchForward) })
}

// BenchmarkConvBackward is the dense backward and (sparse/dead=0.875) the
// backward of the extractor's fine-tune: ρ = 10 % weights, seven rows of dY
// in eight dead, and as many input channels.
func BenchmarkConvBackward(b *testing.B) {
	benchConvShapes(b, 1, 0, benchBackward)
	b.Run("sparse/dead=0.875", func(b *testing.B) { benchConvShapes(b, 0.10, 0.875, benchBackward) })
}

// weightGradStages are the CI-scale ResNet18's convolutions as the weight
// gradient meets them: the 3→8 stem and the 3×3 conv of each stage.
var weightGradStages = []struct {
	name            string
	inC, outC, side int
}{
	{"stem", 3, 8, 16}, {"stage1", 8, 8, 16}, {"stage2", 16, 16, 8}, {"stage3", 32, 32, 4}, {"stage4", 64, 64, 2},
}

// BenchmarkConvWeightGrad times a 3×3 conv's weight gradient alone, two ways:
// "dot" is the form it replaced, dW += dY × colsᵀ on tensor.Gemm's dot form
// with a channel-major dY (the copy the input gradient makes anyway, so not
// counted); "outer" is the layer's own weightGrad — the pixel-major copy of
// dY out of NCHW, dWᵀ = cols × dYᵀ on the outer-product kernels and the
// transposed add into W.Grad. Both cycle through enough layers to exceed
// 4 MiB, because a training step meets every layer's buffers cold.
func BenchmarkConvWeightGrad(b *testing.B) {
	const coldBytes = 4 << 20
	for _, st := range weightGradStages {
		for _, n := range []int{8, 16} {
			rng := tensor.NewRNG(uint64(st.outC*100 + n))
			fanIn, ns := st.inC*9, n*st.side*st.side
			sets := coldBytes/(4*(fanIn*ns+2*st.outC*ns+st.outC*fanIn)) + 1
			layers, douts, dycms := make([]*Conv2D, sets), make([]*tensor.Tensor, sets), make([][]float32, sets)
			for s := range layers {
				l := NewConv2D("c", st.inC, st.outC, 3, 1, 1, 1, false, rng)
				douts[s] = tensor.Randn(rng, 1, l.Forward(tensor.Randn(rng, 1, n, st.inC, st.side, st.side), true).Shape...)
				l.liveOut = l.liveChannels(l.liveOut[:0], douts[s].Data, st.outC, n, st.side*st.side)
				dycms[s] = make([]float32, st.outC*ns)
				l.fromNCHW(dycms[s], douts[s].Data, 0, n)
				layers[s] = l
			}
			b.Run(fmt.Sprintf("%s/N=%d/dot", st.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l := layers[i%sets]
					tensor.Gemm(l.W.Grad.Data, dycms[i%sets], l.cols, st.outC, ns, fanIn, false, true)
				}
			})
			b.Run(fmt.Sprintf("%s/N=%d/outer", st.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					layers[i%sets].weightGrad(douts[i%sets].Data, st.outC*fanIn*ns)
				}
			})
		}
	}
}

func BenchmarkBatchNormForward(b *testing.B) {
	rng := tensor.NewRNG(3)
	l := NewBatchNorm2D("bn", 32, rng)
	x := tensor.Randn(rng, 1, 8, 32, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func BenchmarkCrossEntropy(b *testing.B) {
	rng := tensor.NewRNG(4)
	logits := tensor.Randn(rng, 1, 32, 100)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossEntropy(logits, labels)
	}
}

package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// convShapes are the 3×3 same-padding convolutions the benchmarks time: the
// 16→32-channel layer of README's before/after table, then the four
// ResNet18 stages of the CI-scale model (3×16×16 input) that dominate a
// FedKNOW client's time, then the stages of the 3×12×12 input the
// benchmark's fedknow_train workload trains on (its last, 64ch@2, is shared).
// The late stages (spatial = 16 and 4) are the ones a per-image lowering
// served badly.
var convShapes = []struct{ inC, outC, side int }{
	{16, 32, 16},
	{8, 8, 16}, {16, 16, 8}, {32, 32, 4}, {64, 64, 2},
	{8, 8, 12}, {16, 16, 6}, {32, 32, 3},
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
				l := bound(NewConv2D("c", sh.inC, sh.outC, 3, 1, 1, 1, false), rng)
				sparsify(l.W.W.Data, density, rng)
				x := tensor.Randn(rng, 1, sh.inC, n, sh.side, sh.side)
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
// "dot" is the form it replaced, dW += dY × colsᵀ on tensor.Gemm's dot form,
// reading the channel-major dY in place; "outer" is the layer's own
// weightGrad — the pixel-major copy of dY, dWᵀ = cols × dYᵀ on the
// outer-product kernels and the transposed add into W.Grad. Both cycle
// through enough layers to exceed 4 MiB, because a training step meets every
// layer's buffers cold.
func BenchmarkConvWeightGrad(b *testing.B) {
	const coldBytes = 4 << 20
	for _, st := range weightGradStages {
		for _, n := range []int{8, 16} {
			rng := tensor.NewRNG(uint64(st.outC*100 + n))
			fanIn, ns := st.inC*9, n*st.side*st.side
			sets := coldBytes/(4*(fanIn*ns+st.outC*ns+st.outC*fanIn)) + 1
			layers, douts := make([]*Conv2D, sets), make([]*tensor.Tensor, sets)
			for s := range layers {
				l := bound(NewConv2D("c", st.inC, st.outC, 3, 1, 1, 1, false), rng)
				douts[s] = tensor.Randn(rng, 1, l.Forward(tensor.Randn(rng, 1, st.inC, n, st.side, st.side), true).Shape...)
				l.liveOut = l.liveChannels(l.liveOut[:0], douts[s].Data, st.outC, ns)
				layers[s] = l
			}
			b.Run(fmt.Sprintf("%s/N=%d/dot", st.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l := layers[i%sets]
					tensor.Gemm(l.W.Grad.Data, douts[i%sets].Data, l.cols, st.outC, ns, fanIn, false, true)
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

// bnShapes are the BatchNorms of the CI-scale ResNet18 (3×12×12 input, the
// shape both training workloads of benchmark/ run) at batch 8, one per stage.
var bnShapes = []struct{ c, side int }{{8, 12}, {16, 6}, {32, 3}, {64, 2}}

// benchActivations runs fn once per bnShapes shape with a layer, an input and
// an output gradient of that shape; the layer has seen one training forward
// of its batch.
func benchActivations[L Layer](b *testing.B, newLayer func(c int) L, fn func(l L, x, dout *tensor.Tensor)) {
	const n = 8
	for _, sh := range bnShapes {
		b.Run(fmt.Sprintf("%dch@%dx%d/N=%d", sh.c, sh.side, sh.side, n), func(b *testing.B) {
			rng := tensor.NewRNG(uint64(3 + sh.c))
			l := bound(newLayer(sh.c), rng)
			x := tensor.Randn(rng, 1, sh.c, n, sh.side, sh.side)
			dout := tensor.Randn(rng, 1, l.Forward(x, true).Shape...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(l, x, dout)
			}
		})
	}
}

func newBN(c int) *BatchNorm2D { return NewBatchNorm2D("bn", c) }

func BenchmarkBatchNormForward(b *testing.B) {
	benchActivations(b, newBN, func(l *BatchNorm2D, x, _ *tensor.Tensor) { l.Forward(x, true) })
}

func BenchmarkBatchNormBackward(b *testing.B) {
	benchActivations(b, newBN, func(l *BatchNorm2D, _, dout *tensor.Tensor) { l.Backward(dout) })
}

// BenchmarkReLU times the forward and the backward of a ReLU at the
// BatchNorms' shapes: it follows each of them in the ResNet18 blocks.
func BenchmarkReLU(b *testing.B) {
	newReLU := func(int) *ReLU { return NewReLU() }
	b.Run("forward", func(b *testing.B) {
		benchActivations(b, newReLU, func(l *ReLU, x, _ *tensor.Tensor) { l.Forward(x, true) })
	})
	b.Run("backward", func(b *testing.B) {
		benchActivations(b, newReLU, func(l *ReLU, _, dout *tensor.Tensor) { l.Backward(dout) })
	})
}

// BenchmarkResidualAdd times a residual block's two adds, the forward sum of
// its paths and the backward sum of their input gradients, with identity
// paths so that only the adds are timed.
func BenchmarkResidualAdd(b *testing.B) {
	newRes := func(int) *Residual { return NewResidual(NewIdentity(), nil) }
	b.Run("forward", func(b *testing.B) {
		benchActivations(b, newRes, func(l *Residual, x, _ *tensor.Tensor) { l.Forward(x, true) })
	})
	b.Run("backward", func(b *testing.B) {
		benchActivations(b, newRes, func(l *Residual, _, dout *tensor.Tensor) { l.Backward(dout) })
	})
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

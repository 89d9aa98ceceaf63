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
// which routes the forward GEMM through the sparse-A kernel.
func benchConvShapes(b *testing.B, density float64, fn func(b *testing.B, l *Conv2D, x, dout *tensor.Tensor)) {
	for _, sh := range convShapes {
		for _, n := range []int{8, 16} {
			b.Run(fmt.Sprintf("%dto%dch@%dx%d/N=%d", sh.inC, sh.outC, sh.side, sh.side, n), func(b *testing.B) {
				rng := tensor.NewRNG(uint64(sh.outC*100 + n))
				l := NewConv2D("c", sh.inC, sh.outC, 3, 1, 1, 1, false, rng)
				sparsify(l.W.W.Data, density, rng)
				x := tensor.Randn(rng, 1, n, sh.inC, sh.side, sh.side)
				dout := tensor.Randn(rng, 1, l.Forward(x, true).Shape...)
				b.ResetTimer()
				fn(b, l, x, dout)
			})
		}
	}
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

func BenchmarkConvForward(b *testing.B) {
	benchConvShapes(b, 1, func(b *testing.B, l *Conv2D, x, _ *tensor.Tensor) {
		for i := 0; i < b.N; i++ {
			l.Forward(x, true)
		}
	})
}

// BenchmarkConvForwardSparse is the knowledge-model forward: ρ = 10 % of the
// weights retained over zeros.
func BenchmarkConvForwardSparse(b *testing.B) {
	benchConvShapes(b, 0.10, func(b *testing.B, l *Conv2D, x, _ *tensor.Tensor) {
		for i := 0; i < b.N; i++ {
			l.Forward(x, true)
		}
	})
}

func BenchmarkConvBackward(b *testing.B) {
	benchConvShapes(b, 1, func(b *testing.B, l *Conv2D, _, dout *tensor.Tensor) {
		for i := 0; i < b.N; i++ {
			ZeroGrads(l.Params())
			l.Backward(dout)
		}
	})
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

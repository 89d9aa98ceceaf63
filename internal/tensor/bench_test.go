package tensor

import (
	"fmt"
	"testing"
)

// gemmShape is one benchmarked product: C (m×n) += op(A) × op(B).
type gemmShape struct {
	name    string
	m, k, n int
	tA, tB  bool
}

// BenchmarkGemm covers the square and conv-shaped problems the training
// stack actually issues: (out-channels × fan-in × spatial) for forward,
// plus transposed variants for the backward GEMMs, the stem's weight gradient
// (n = 8: the outer-product tile at half width), and then the products of the
// 3×12×12 ResNet18 the training workloads run, whose four stages are 8, 16,
// 32 and 64 channels over 12, 6, 3 and 2 pixel maps: a 3×3 conv of ch channels
// over an s×s map at batch N is forward ch × 9ch × Ns², dWᵀ = cols × dYᵀ
// 9ch × Ns² × ch and dcols 9ch × ch × Ns², at N = 8 (a training step) and
// N = 16 (the pre-aggregation pass and knowledge extraction). Every shape
// runs on each kernel tier the CPU has.
func BenchmarkGemm(b *testing.B) {
	shapes := []gemmShape{
		{"square64", 64, 64, 64, false, false},
		{"square128", 128, 128, 128, false, false},
		{"square256", 256, 256, 256, false, false},
		{"conv-fwd-32x144x256", 32, 144, 256, false, false},
		{"conv-fwd-64x576x256", 64, 576, 256, false, false},
		{"conv-dW-144x256x32", 144, 256, 32, false, false},
		{"half-width-dW-27x2048x8", 27, 2048, 8, false, false},
		{"linear-fwd-16x1024x100", 16, 1024, 100, false, true},
		{"linear-dW-100x16x1024", 100, 16, 1024, true, false},
	}
	for _, batch := range []int{8, 16} {
		for _, st := range []struct{ ch, side int }{{8, 12}, {16, 6}, {32, 3}, {64, 2}} {
			ch, ns := st.ch, batch*st.side*st.side
			at := fmt.Sprintf("%dch@%d/N%d", ch, st.side, batch)
			shapes = append(shapes,
				gemmShape{"resnet-fwd-" + at, ch, 9 * ch, ns, false, false},
				gemmShape{"resnet-dW-" + at, 9 * ch, ns, ch, false, false},
				gemmShape{"resnet-dcols-" + at, 9 * ch, ch, ns, true, false})
		}
	}
	tiers := []string{"go"}
	if hasDot4 {
		tiers = []string{"avx2"}
	}
	if hasAVX512 {
		tiers = append(tiers, "avx512")
	}
	for _, sh := range shapes {
		for _, tier := range tiers {
			b.Run(sh.name+"/"+tier, func(b *testing.B) {
				setKernelGate(b, tier != "go")
				setAVX512Gate(b, tier == "avx512")
				r := NewRNG(1)
				a := make([]float32, sh.m*sh.k)
				x := make([]float32, sh.k*sh.n)
				r.FillNorm(a, 1)
				r.FillNorm(x, 1)
				c := make([]float32, sh.m*sh.n)
				flop := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(c)
					Gemm(c, a, x, sh.m, sh.k, sh.n, sh.tA, sh.tB)
				}
				b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// BenchmarkGemmSparse measures the zero-skipping path with a ρ=10 % weight
// operand: the knowledge-model forward (W × cols) and the masked fine-tune's
// input gradient (Wᵀ × dY, transA).
func BenchmarkGemmSparse(b *testing.B) {
	for _, sh := range []gemmShape{
		{"fwd-32x144x256", 32, 144, 256, false, false},
		{"dcols-144x32x256", 144, 32, 256, true, false},
	} {
		b.Run(sh.name, func(b *testing.B) {
			r := NewRNG(5)
			a := make([]float32, sh.m*sh.k)
			x := make([]float32, sh.k*sh.n)
			r.FillNorm(a, 1)
			r.FillNorm(x, 1)
			for i := range a {
				if r.Float64() < 0.9 {
					a[i] = 0
				}
			}
			c := make([]float32, sh.m*sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(c)
				Gemm(c, a, x, sh.m, sh.k, sh.n, sh.tA, false)
			}
		})
	}
}

// BenchmarkGemmParallel exercises the kernel pool at several thread counts
// on a conv-backward-shaped problem (single-threaded on a 1-core runner).
func BenchmarkGemmParallel(b *testing.B) {
	defer SetKernelThreads(0)
	r := NewRNG(6)
	m, k, n := 64, 576, 1024
	a := make([]float32, m*k)
	x := make([]float32, k*n)
	r.FillNorm(a, 1)
	r.FillNorm(x, 1)
	c := make([]float32, m*n)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			SetKernelThreads(threads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(c)
				Gemm(c, a, x, m, k, n, false, false)
			}
		})
	}
}

// loweringShapes are the convolutions of the CI-scale ResNet18 at batch 8:
// the 3×3 pad-1 conv of each of its four stages, then the two stride-2
// windows that open a stage — the 3×3 one and the 1×1 shortcut — for a
// 16×16 input and then for the 12×12 one the benchmark's training workloads
// train on (its stages run 12 / 6 / 3 / 2). The 16×16 to 4×4 maps go
// through the plane shift; the 3×3 and 2×2 maps and every stride-2 window
// through a gather plan.
var loweringShapes = []struct {
	name                    string
	c, side, k, stride, pad int
}{
	{"8ch@16", 8, 16, 3, 1, 1},
	{"16ch@8", 16, 8, 3, 1, 1},
	{"32ch@4", 32, 4, 3, 1, 1},
	{"64ch@2", 64, 2, 3, 1, 1},
	{"3x3s2-8ch@16", 8, 16, 3, 2, 1},
	{"1x1s2-8ch@16", 8, 16, 1, 2, 0},
	{"8ch@12", 8, 12, 3, 1, 1},
	{"16ch@6", 16, 6, 3, 1, 1},
	{"32ch@3", 32, 3, 3, 1, 1},
	{"3x3s2-8ch@12", 8, 12, 3, 2, 1},
	{"1x1s2-8ch@12", 8, 12, 1, 2, 0},
	{"3x3s2-16ch@6", 16, 6, 3, 2, 1},
	{"1x1s2-16ch@6", 16, 6, 1, 2, 0},
	{"3x3s2-32ch@3", 32, 3, 3, 2, 1},
	{"1x1s2-32ch@3", 32, 3, 1, 2, 0},
}

// benchLowering times fn(batch, matrix) over loweringShapes and reports the
// bytes of column matrix moved per second. "hot" reuses one pair of buffers;
// "cold" cycles through enough pairs to exceed coldBytes, four times the L2
// the GEMM blocking assumes, because a training step runs twenty different
// layers' lowerings between two visits to the same buffer.
func benchLowering(b *testing.B, fn func(batch, matrix []float32, n, c, h, w, k, stride, pad, outH, outW int)) {
	const n, coldBytes = 8, 16 * gemmL2Floats
	for _, sh := range loweringShapes {
		out := ConvOutSize(sh.side, sh.k, sh.stride, sh.pad)
		batchLen, matrixLen := n*sh.c*sh.side*sh.side, sh.c*sh.k*sh.k*n*out*out
		for _, mode := range []struct {
			name string
			sets int
		}{{"hot", 1}, {"cold", coldBytes/(4*(batchLen+matrixLen)) + 1}} {
			b.Run(sh.name+"/"+mode.name, func(b *testing.B) {
				r := NewRNG(2)
				batches, matrices := make([][]float32, mode.sets), make([][]float32, mode.sets)
				for s := range batches {
					batches[s], matrices[s] = make([]float32, batchLen), make([]float32, matrixLen)
					r.FillNorm(batches[s], 1)
					r.FillNorm(matrices[s], 1)
				}
				b.SetBytes(int64(4 * matrixLen))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := i % mode.sets
					fn(batches[s], matrices[s], n, sh.c, sh.side, sh.side, sh.k, sh.stride, sh.pad, out, out)
				}
			})
		}
	}
}

// benchChans is the all-channels list BenchmarkIm2Col lowers: every slot its
// own channel.
var benchChans = identity(64)

func BenchmarkIm2Col(b *testing.B) {
	benchLowering(b, func(x, cols []float32, n, c, h, w, k, stride, pad, outH, outW int) {
		Im2Col(cols, x, n, h, w, k, k, stride, pad, outH, outW, benchChans[:c], 0, c)
	})
}

func BenchmarkCol2Im(b *testing.B) {
	benchLowering(b, func(dx, dcols []float32, n, c, h, w, k, stride, pad, outH, outW int) {
		Col2Im(dx, dcols, n, h, w, k, k, stride, pad, outH, outW, 0, c, nil)
	})
}

func BenchmarkDot(b *testing.B) {
	r := NewRNG(3)
	x := make([]float32, 1<<16)
	y := make([]float32, 1<<16)
	r.FillNorm(x, 1)
	r.FillNorm(y, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotSlice(x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	r := NewRNG(7)
	x := make([]float32, 1<<16)
	y := make([]float32, 1<<16)
	r.FillNorm(x, 1)
	r.FillNorm(y, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AxpySlice(y, 0.999, x)
	}
}

func BenchmarkAxpySparse10(b *testing.B) {
	r := NewRNG(9)
	n := 1 << 16
	dst := make([]float32, n)
	mask := make([]bool, n)
	w := make([]float32, n)
	r.FillNorm(w, 1)
	for i := range mask {
		mask[i] = r.Float64() < 0.1
	}
	sv := GatherMask(nil, w, mask)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AxpySparse(dst, 0.999, sv)
	}
}

// BenchmarkFloat32LE moves one 2¹⁸-coordinate run (1 MiB, a dense upload of
// the ingest workloads) each way, with the AVX2 kernels (avx2) and with the
// Go loops (go), beside a plain byte copy of the same size (copy) as the
// memory-speed mark; SetBytes is the run's bytes.
func BenchmarkFloat32LE(b *testing.B) {
	const n = 1 << 18
	v := make([]float32, n)
	NewRNG(1).FillNorm(v, 1)
	enc, dup := make([]byte, 4*n), make([]byte, 4*n)
	PutFloat32sLE(enc, v)
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			copy(dup, enc)
		}
	})
	for _, tier := range []string{"avx2", "go"} {
		b.Run("put/"+tier, func(b *testing.B) {
			setKernelGate(b, tier == "avx2")
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				PutFloat32sLE(enc, v)
			}
		})
		b.Run("get/"+tier, func(b *testing.B) {
			setKernelGate(b, tier == "avx2")
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				GetFloat32sLE(v, enc)
			}
		})
	}
}

package model

import (
	"math"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// allModels builds every registered architecture at the smallest width on a
// tiny input.
func allModels(t *testing.T) []*Model {
	t.Helper()
	rng := tensor.NewRNG(1)
	var ms []*Model
	for _, name := range Names() {
		m, err := Build(name, 7, 3, 12, 12, 1, rng.Fork(1))
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		ms = append(ms, m)
	}
	return ms
}

func TestRegistryHasAllPaperArchitectures(t *testing.T) {
	want := []string{"SixCNN", "ResNet18", "ResNet152", "DenseNet", "InceptionV3",
		"ResNeXt", "WideResNet", "SENet18", "MobileNetV2", "MobileNetV2x2", "ShuffleNetV2"}
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	for _, w := range want {
		if !names[w] {
			t.Fatalf("missing architecture %s", w)
		}
	}
}

func TestBuildUnknownFails(t *testing.T) {
	if _, err := Build("NopeNet", 10, 3, 16, 16, 1, tensor.NewRNG(1)); err == nil {
		t.Fatal("unknown architecture must error")
	}
}

func TestAllModelsForwardShape(t *testing.T) {
	for _, m := range allModels(t) {
		x := tensor.Randn(tensor.NewRNG(2), 1, 2, 3, 12, 12)
		y := m.Forward(x, false)
		if y.Shape[0] != 2 || y.Shape[1] != 7 {
			t.Fatalf("%s: output shape %v, want (2,7)", m.Name, y.Shape)
		}
		for _, v := range y.Data {
			if v != v { // NaN check
				t.Fatalf("%s: NaN in output", m.Name)
			}
		}
	}
}

// TestForwardKeepsImagesApart holds the layout boundary: in eval mode the
// logits of an NCHW batch are, row by row, those of each image run alone (for
// one image the NCHW and CNHW batches are the same floats). Products of
// different sizes may take different GEMM routes, hence the tolerance.
func TestForwardKeepsImagesApart(t *testing.T) {
	const n, size = 3, 3 * 12 * 12
	x := tensor.Randn(tensor.NewRNG(4), 1, n, 3, 12, 12)
	for _, m := range allModels(t) {
		batch := append([]float32(nil), m.Forward(x, false).Data...)
		for i := 0; i < n; i++ {
			one := tensor.FromSlice(x.Data[i*size:(i+1)*size], 1, 3, 12, 12)
			for j, v := range m.Forward(one, false).Data {
				if w := batch[i*m.NumClasses+j]; math.Abs(float64(v-w)) > 1e-3*(1+math.Abs(float64(w))) {
					t.Fatalf("%s: image %d alone gives logit %d = %v, in the batch %v", m.Name, i, j, v, w)
				}
			}
		}
	}
}

func TestAllModelsBackwardRuns(t *testing.T) {
	for _, m := range allModels(t) {
		x := tensor.Randn(tensor.NewRNG(3), 1, 2, 3, 12, 12)
		logits := m.Forward(x, true)
		_, dl := nn.CrossEntropy(logits, []int{0, 3})
		nn.ZeroGrads(m.Params())
		m.Backward(dl)
		// At least one parameter must receive gradient signal.
		var any bool
		for _, p := range m.Params() {
			for _, g := range p.Grad.Data {
				if g != 0 {
					any = true
					break
				}
			}
			if any {
				break
			}
		}
		if !any {
			t.Fatalf("%s: backward produced all-zero gradients", m.Name)
		}
	}
}

func TestParamCountsOrdering(t *testing.T) {
	rng := tensor.NewRNG(4)
	small := MustBuild("MobileNetV2", 10, 3, 12, 12, 1, rng.Fork(1))
	big := MustBuild("ResNet152", 10, 3, 12, 12, 1, rng.Fork(2))
	wide := MustBuild("WideResNet", 10, 3, 12, 12, 1, rng.Fork(3))
	if small.NumParams() >= big.NumParams() {
		t.Fatalf("MobileNetV2 (%d) should be smaller than ResNet152 (%d)",
			small.NumParams(), big.NumParams())
	}
	if small.NumParams() >= wide.NumParams() {
		t.Fatalf("MobileNetV2 (%d) should be smaller than WideResNet (%d)",
			small.NumParams(), wide.NumParams())
	}
}

func TestMobileNetWidthMultiplier(t *testing.T) {
	rng := tensor.NewRNG(5)
	x1 := MustBuild("MobileNetV2", 10, 3, 12, 12, 1, rng.Fork(1))
	x2 := MustBuild("MobileNetV2x2", 10, 3, 12, 12, 1, rng.Fork(2))
	if x2.NumParams() <= x1.NumParams() {
		t.Fatal("×2 multiplier must increase parameters")
	}
}

func TestParamBytes(t *testing.T) {
	m := MustBuild("SixCNN", 10, 3, 12, 12, 1, tensor.NewRNG(6))
	if m.ParamBytes() != m.NumParams()*4 {
		t.Fatal("ParamBytes must be 4 per scalar")
	}
}

func TestFLOPsPerSamplePositiveAndCached(t *testing.T) {
	m := MustBuild("ResNet18", 10, 3, 12, 12, 1, tensor.NewRNG(7))
	f1 := m.FLOPsPerSample()
	if f1 <= 0 {
		t.Fatalf("FLOPs = %v", f1)
	}
	if m.FLOPsPerSample() != f1 {
		t.Fatal("FLOPs must be cached")
	}
}

func TestFLOPsOrdering(t *testing.T) {
	rng := tensor.NewRNG(8)
	six := MustBuild("SixCNN", 10, 3, 12, 12, 1, rng.Fork(1))
	deep := MustBuild("ResNet152", 10, 3, 12, 12, 1, rng.Fork(2))
	if six.FLOPsPerSample() >= deep.FLOPsPerSample() {
		t.Fatalf("SixCNN FLOPs (%v) should be below ResNet152 (%v)",
			six.FLOPsPerSample(), deep.FLOPsPerSample())
	}
}

func TestWidthScalesParameters(t *testing.T) {
	rng := tensor.NewRNG(9)
	w1 := MustBuild("ResNet18", 10, 3, 12, 12, 1, rng.Fork(1))
	w2 := MustBuild("ResNet18", 10, 3, 12, 12, 2, rng.Fork(2))
	if w2.NumParams() <= w1.NumParams() {
		t.Fatal("doubling width must increase parameters")
	}
}

// zooRun is everything two training steps and an eval forward of a model put
// out: the eval logits, the second step's flat gradients and every
// BatchNorm's running mean and variance, in walk order.
type zooRun struct{ logits, grads, stats []float32 }

// runZoo builds arch at the training shape (3×16×16, batch 8, ten classes),
// takes two SGD steps on one batch and evaluates it, at the given kernel width.
func runZoo(arch string, threads int) zooRun {
	prev := tensor.SetKernelThreads(threads)
	defer tensor.SetKernelThreads(prev)
	rng := tensor.NewRNG(29)
	m := MustBuild(arch, 10, 3, 16, 16, 1, rng.Fork(1))
	x := tensor.Randn(rng.Fork(2), 1, 8, 3, 16, 16)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var r zooRun
	for step := 0; step < 2; step++ {
		_, dl := nn.CrossEntropy(m.Forward(x, true), labels)
		nn.ZeroGrads(m.Params())
		m.Backward(dl)
		r.grads = nn.FlattenGrads(m.Params())
		for _, p := range m.Params() {
			p.W.Axpy(-0.05, p.Grad)
		}
	}
	r.logits = append(r.logits, m.Forward(x, false).Data...)
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			r.stats = append(append(r.stats, bn.RunningMean...), bn.RunningVar...)
		}
	})
	return r
}

// TestZooDeterministicAcrossWidths holds every registered architecture to the
// determinism invariant end to end: two training steps and an eval forward at
// KernelThreads 1, 2 and 4 leave the same logits, gradients and BatchNorm
// running statistics, bit for bit (two NaNs agree).
func TestZooDeterministicAcrossWidths(t *testing.T) {
	for _, arch := range Names() {
		t.Run(arch, func(t *testing.T) {
			want := runZoo(arch, 1)
			for _, threads := range []int{2, 4} {
				got := runZoo(arch, threads)
				for _, f := range []struct {
					name      string
					got, want []float32
				}{{"logits", got.logits, want.logits}, {"grads", got.grads, want.grads}, {"running stats", got.stats, want.stats}} {
					if len(f.got) != len(f.want) {
						t.Fatalf("threads=%d: %d %s, want %d", threads, len(f.got), f.name, len(f.want))
					}
					for i, w := range f.want {
						if g := f.got[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
							t.Fatalf("threads=%d: %s[%d] = %v, want %v", threads, f.name, i, g, w)
						}
					}
				}
			}
		})
	}
}

// spyConv is a Conv2D that records which of its backward passes ran.
type spyConv struct {
	*nn.Conv2D
	dx, paramsOnly bool
}

func (s *spyConv) Backward(dout *tensor.Tensor) *tensor.Tensor {
	s.dx = true
	return s.Conv2D.Backward(dout)
}

func (s *spyConv) BackwardParamsOnly(dout *tensor.Tensor) {
	s.paramsOnly = true
	s.Conv2D.BackwardParamsOnly(dout)
}

// spyStem puts a spyConv in place of m's stem convolution — the network's
// first layer, or the first layer of a Sequential stem — and returns it.
func spyStem(t *testing.T, m *Model) *spyConv {
	t.Helper()
	layers := m.Net.(*nn.Sequential).Layers
	if s, ok := layers[0].(*nn.Sequential); ok {
		layers = s.Layers
	}
	c, ok := layers[0].(*nn.Conv2D)
	if !ok {
		t.Fatalf("%s: stem starts with %T, not a convolution", m.Name, layers[0])
	}
	spy := &spyConv{Conv2D: c}
	layers[0] = spy
	return spy
}

// TestStemSkipsInputGradient holds Model.Backward's first-layer elision on
// every architecture: the stem convolution computes no input gradient, and
// the parameter gradients are bit for bit those of the network's full
// Backward, which does compute it.
func TestStemSkipsInputGradient(t *testing.T) {
	for _, arch := range Names() {
		t.Run(arch, func(t *testing.T) {
			var grads [2][]float32
			for i, full := range []bool{false, true} {
				rng := tensor.NewRNG(37)
				m := MustBuild(arch, 10, 3, 16, 16, 1, rng.Fork(1))
				spy := spyStem(t, m)
				x := tensor.Randn(rng.Fork(2), 1, 8, 3, 16, 16)
				_, dl := nn.CrossEntropy(m.Forward(x, true), []int{0, 1, 2, 3, 4, 5, 6, 7})
				nn.ZeroGrads(m.Params())
				if full {
					m.Net.Backward(dl)
				} else {
					m.Backward(dl)
				}
				if spy.dx == full && spy.paramsOnly == !full {
					grads[i] = nn.FlattenGrads(m.Params())
					continue
				}
				if full {
					t.Fatalf("the network's Backward skipped the stem's input gradient (dx %v, params only %v)", spy.dx, spy.paramsOnly)
				}
				t.Fatalf("Model.Backward ran the stem's full backward (dx %v, params only %v)", spy.dx, spy.paramsOnly)
			}
			for j, w := range grads[1] {
				if g := grads[0][j]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("grads[%d] = %v, want %v", j, g, w)
				}
			}
		})
	}
}

func TestModelLearnsTinyProblem(t *testing.T) {
	// SixCNN must fit a two-class toy problem: accuracy well above chance
	// after a few gradient steps. This is the substrate's end-to-end
	// learning sanity check.
	rng := tensor.NewRNG(10)
	m := MustBuild("SixCNN", 2, 1, 8, 8, 1, rng.Fork(1))
	// class 0: top-half bright; class 1: bottom-half bright.
	mk := func(class int, r *tensor.RNG) []float32 {
		img := make([]float32, 64)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := float32(r.Norm() * 0.3)
				if (class == 0 && y < 4) || (class == 1 && y >= 4) {
					v += 1.5
				}
				img[y*8+x] = v
			}
		}
		return img
	}
	n := 32
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		class := i % 2
		copy(x.Data[i*64:(i+1)*64], mk(class, rng))
		labels[i] = class
	}
	for step := 0; step < 40; step++ {
		logits := m.Forward(x, true)
		_, dl := nn.CrossEntropy(logits, labels)
		nn.ZeroGrads(m.Params())
		m.Backward(dl)
		for _, p := range m.Params() {
			p.W.Axpy(-0.05, p.Grad)
		}
	}
	logits := m.Forward(x, false)
	correct := 0
	for i := 0; i < n; i++ {
		if logits.ArgMaxRow(i, nil) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Fatalf("SixCNN training accuracy %v, want ≥ 0.9", acc)
	}
}

// persistentState copies what Borrow must put back: the parameters, then
// every BatchNorm's running mean and variance in walk order.
func persistentState(m *Model) []float32 {
	s := nn.FlattenParams(m.Params())
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			s = append(append(s, bn.RunningMean...), bn.RunningVar...)
		}
	})
	return s
}

// TestBorrowRestoresState holds Model.Borrow to its contract on every zoo
// architecture: whatever fn does to the model — install other weights, run a
// train-mode forward, a backward and an SGD step — the parameters and
// running statistics come back bit for bit, a nested call panics, and a
// warm call allocates nothing.
func TestBorrowRestoresState(t *testing.T) {
	for _, m := range allModels(t) {
		t.Run(m.Name, func(t *testing.T) {
			x := tensor.Randn(tensor.NewRNG(6), 1, 2, 3, 12, 12)
			// One real step first, so the statistics are not their initial values.
			_, dl := nn.CrossEntropy(m.Forward(x, true), []int{0, 3})
			m.Backward(dl)
			want := persistentState(m)
			other := tensor.Randn(tensor.NewRNG(7), 0.1, m.NumParams()).Data
			m.Borrow(func() {
				m.SetWeights(other)
				_, dl := nn.CrossEntropy(m.Forward(x, true), []int{1, 2})
				nn.ZeroGrads(m.Params())
				m.Backward(dl)
				for _, p := range m.Params() {
					p.W.Axpy(-0.05, p.Grad)
				}
				if got := persistentState(m); slices.Equal(got, want) {
					t.Fatal("fn left the state untouched; the test proves nothing")
				}
			})
			got := persistentState(m)
			if len(got) != len(want) {
				t.Fatalf("state has %d floats after Borrow, want %d", len(got), len(want))
			}
			for i, w := range want {
				if math.Float32bits(got[i]) != math.Float32bits(w) {
					t.Fatalf("state[%d] = %v after Borrow, want %v (%d parameters first)", i, got[i], w, m.NumParams())
				}
			}
		})
	}
}

func TestBorrowNestedPanics(t *testing.T) {
	m := MustBuild("ResNet18", 7, 3, 12, 12, 1, tensor.NewRNG(8))
	want := persistentState(m)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a Borrow inside Borrow must panic")
			}
		}()
		m.Borrow(func() {
			clear(m.Params()[0].W.Data)
			m.Borrow(func() {})
		})
	}()
	if !slices.Equal(persistentState(m), want) {
		t.Fatal("a panicking fn must still get the state put back")
	}
	m.Borrow(func() {}) // the panic left the model lendable
}

func TestBorrowAllocFree(t *testing.T) {
	m := MustBuild("ResNet18", 7, 3, 12, 12, 1, tensor.NewRNG(9))
	m.Borrow(func() {}) // the first call sizes the copy
	if allocs := testing.AllocsPerRun(10, func() { m.Borrow(func() {}) }); allocs != 0 {
		t.Fatalf("Borrow allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

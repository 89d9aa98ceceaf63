package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// numGradParam estimates d(loss)/d(param[idx]) by central differences, where
// loss is the sum of the layer output weighted by w (so dout = w).
func numGradParam(l Layer, x, w *tensor.Tensor, p *Param, idx int) float64 {
	const eps = 1e-3
	orig := p.W.Data[idx]
	p.W.Data[idx] = orig + eps
	up := tensor.Dot(w, l.Forward(x.Clone(), true))
	p.W.Data[idx] = orig - eps
	down := tensor.Dot(w, l.Forward(x.Clone(), true))
	p.W.Data[idx] = orig
	return (up - down) / (2 * eps)
}

// numGradInput estimates d(loss)/d(x[idx]).
func numGradInput(l Layer, x, w *tensor.Tensor, idx int) float64 {
	const eps = 1e-3
	orig := x.Data[idx]
	x.Data[idx] = orig + eps
	up := tensor.Dot(w, l.Forward(x.Clone(), true))
	x.Data[idx] = orig - eps
	down := tensor.Dot(w, l.Forward(x.Clone(), true))
	x.Data[idx] = orig
	return (up - down) / (2 * eps)
}

// checkLayerGradients verifies analytic gradients against finite differences
// for a handful of parameter and input coordinates. The loss weights every
// output element differently: under a plain sum, an output gradient handed to
// the wrong channel or image reads the same ones, and the input gradient of a
// normalisation is zero whatever the layer does.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	y := l.Forward(x.Clone(), true)
	dout := tensor.New(y.Shape...)
	tensor.NewRNG(98).FillUniform(dout.Data, 0.5, 1.5)
	ZeroGrads(l.Params())
	dx := l.Backward(dout)

	rng := tensor.NewRNG(99)
	for _, p := range l.Params() {
		for trial := 0; trial < 3 && trial < p.W.Len(); trial++ {
			idx := rng.Intn(p.W.Len())
			want := numGradParam(l, x, dout, p, idx)
			got := float64(p.Grad.Data[idx])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, idx, got, want)
			}
		}
	}
	for trial := 0; trial < 5; trial++ {
		idx := rng.Intn(x.Len())
		want := numGradInput(l, x, dout, idx)
		got := float64(dx.Data[idx])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input[%d]: analytic %v vs numeric %v", idx, got, want)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := bound(NewLinear("fc", 7, 4), rng)
	x := tensor.Randn(rng, 1, 3, 7)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestConvGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := bound(NewConv2D("conv", 3, 4, 3, 1, 1, 1, true), rng)
	x := tensor.Randn(rng, 1, 3, 2, 5, 5)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestConvStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := bound(NewConv2D("conv", 2, 6, 3, 2, 1, 1, false), rng)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestGroupedConvGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := bound(NewConv2D("gconv", 4, 8, 3, 1, 1, 2, true), rng)
	x := tensor.Randn(rng, 1, 4, 2, 4, 4)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	l := bound(NewConv2D("dwconv", 4, 4, 3, 1, 1, 4, false), rng)
	x := tensor.Randn(rng, 1, 4, 2, 5, 5)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestConv1x1Gradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := bound(NewConv2D("pw", 3, 5, 1, 1, 0, 1, true), rng)
	x := tensor.Randn(rng, 1, 3, 2, 4, 4)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	l := bound(NewBatchNorm2D("bn", 3), rng)
	// Non-trivial gamma/beta so the gradient isn't symmetric.
	l.Gamma.W.Data[0], l.Gamma.W.Data[1], l.Gamma.W.Data[2] = 1.5, 0.7, 1.1
	l.Beta.W.Data[0] = 0.3
	x := tensor.Randn(rng, 1, 3, 4, 3, 3)
	checkLayerGradients(t, l, x, 5e-2)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := bound(NewBatchNorm2D("bn", 2), rng)
	x := tensor.Randn(rng, 1, 2, 8, 4, 4)
	for j := 128; j < 256; j++ {
		x.Data[j] += 3 // channel 1 sits apart from channel 0
	}
	for i := 0; i < 50; i++ {
		l.Forward(x, true)
	}
	y := l.Forward(x, false)
	// After many passes on the same batch the eval output should be close
	// to normalised (mean ≈ 0 per channel).
	n, c, spatial := 8, 2, 16
	for ch := 0; ch < c; ch++ {
		var mean float64
		for i := 0; i < n; i++ {
			base := (ch*n + i) * spatial
			for j := 0; j < spatial; j++ {
				mean += float64(y.Data[base+j])
			}
		}
		mean /= float64(n * spatial)
		if math.Abs(mean) > 0.2 {
			t.Fatalf("channel %d eval mean = %v, want ≈ 0", ch, mean)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 4)
	y := l.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("ReLU[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	dout := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 4)
	dx := l.Backward(dout)
	wantDx := []float32{0, 0, 1, 0}
	for i, w := range wantDx {
		if dx.Data[i] != w {
			t.Fatalf("ReLU dx[%d] = %v, want %v", i, dx.Data[i], w)
		}
	}
}

// TestReLUMatchesBranchingDefinition holds the branch-free loops to the
// definition they replaced — y = x where x > 0, else +0; dx = g where y > 0,
// else +0, written with the comparisons spelled out — bit for bit on every
// class of input: ±0, denormals, ±Inf, the extremes and a random sample, with
// gradients that are themselves −0, Inf and NaN. A NaN input has no order, so
// the definition keeps it and passes its gradient; the loops must too (NaN
// out, the payload's sign aside, and g through).
func TestReLUMatchesBranchingDefinition(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	xs := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1e-38, -1e-38, 1, -1,
		math.MaxFloat32, -math.MaxFloat32, inf, -inf}
	gs := []float32{1, -2.5, 0, float32(math.Copysign(0, -1)), inf, -inf, nan, 3e-45, -7, 0.1, 5, -5}
	rng := tensor.NewRNG(77)
	for i := 0; i < 500; i++ {
		xs = append(xs, float32(rng.Norm()))
		gs = append(gs, float32(rng.Norm()))
	}
	nNaN := 2
	xs = append(xs, nan, -nan)
	gs = append(gs, 4, -4)

	l := NewReLU()
	y := l.Forward(tensor.FromSlice(xs, 1, len(xs)), true)
	dx := l.Backward(tensor.FromSlice(gs, 1, len(gs)))
	for i, x := range xs[:len(xs)-nNaN] {
		wantY, wantDx := x, gs[i]
		if x <= 0 {
			wantY = 0
		}
		if wantY <= 0 {
			wantDx = 0
		}
		if math.Float32bits(y.Data[i]) != math.Float32bits(wantY) {
			t.Errorf("ReLU(%v) = %v (%#x), want %v (%#x)", x, y.Data[i], math.Float32bits(y.Data[i]), wantY, math.Float32bits(wantY))
		}
		if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx) {
			t.Errorf("ReLU'(%v)·%v = %v (%#x), want %v (%#x)", x, gs[i], dx.Data[i], math.Float32bits(dx.Data[i]), wantDx, math.Float32bits(wantDx))
		}
	}
	for i := len(xs) - nNaN; i < len(xs); i++ {
		if y.Data[i] == y.Data[i] {
			t.Errorf("ReLU(NaN %#x) = %v, want NaN", math.Float32bits(xs[i]), y.Data[i])
		}
		if dx.Data[i] != gs[i] {
			t.Errorf("ReLU'(NaN)·%v = %v, want the gradient passed through", gs[i], dx.Data[i])
		}
	}
}

func TestReLU6Clamps(t *testing.T) {
	l := NewReLU6()
	x := tensor.FromSlice([]float32{-1, 3, 7}, 1, 3)
	y := l.Forward(x, true)
	for i, w := range []float32{0, 3, 6} {
		if y.Data[i] != w {
			t.Fatalf("ReLU6[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	dx := l.Backward(tensor.FromSlice([]float32{1, 1, 1}, 1, 3))
	for i, w := range []float32{0, 1, 0} {
		if dx.Data[i] != w {
			t.Fatalf("ReLU6 dx[%d] = %v, want %v", i, dx.Data[i], w)
		}
	}
}

func TestSigmoidGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewSigmoid()
	x := tensor.Randn(rng, 1, 2, 5)
	checkLayerGradients(t, l, x, 1e-2)
}

func TestMaxPoolForwardBackward(t *testing.T) {
	l := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := l.Forward(x, true)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("maxpool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	dx := l.Backward(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2))
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward misrouted: %v", dx.Data)
	}
	if dx.At(0, 0, 0, 0) != 0 {
		t.Fatal("non-argmax positions must get zero gradient")
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	l := NewAvgPool2D(2, 2)
	x := tensor.Randn(rng, 1, 3, 2, 4, 4)
	checkLayerGradients(t, l, x, 1e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	l := NewGlobalAvgPool()
	x := tensor.Randn(rng, 1, 3, 2, 4, 4)
	checkLayerGradients(t, l, x, 1e-2)
}

func TestResidualGradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := bound(NewResidual(NewSequential(NewConv2D("c1", 3, 3, 3, 1, 1, 1, false), NewReLU()), nil), rng)
	x := tensor.Randn(rng, 1, 3, 2, 4, 4)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestResidualProjectionShortcut(t *testing.T) {
	rng := tensor.NewRNG(13)
	body := NewConv2D("c1", 2, 4, 3, 2, 1, 1, false)
	short := NewConv2D("sc", 2, 4, 1, 2, 0, 1, false)
	l := bound(NewResidual(body, short), rng)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestConcatGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	b1 := NewConv2D("b1", 2, 3, 3, 1, 1, 1, false)
	b2 := NewConv2D("b2", 2, 2, 1, 1, 0, 1, false)
	l := bound(NewConcat(b1, b2), rng)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	y := l.Forward(x.Clone(), true)
	if y.Shape[0] != 5 {
		t.Fatalf("concat channels = %d, want 5", y.Shape[0])
	}
	checkLayerGradients(t, l, x, 2e-2)
}

// TestSplitConcatGradients is ShuffleNetV2's unit: the first channels pass
// through, the rest through a convolution, and the halves are rejoined.
func TestSplitConcatGradients(t *testing.T) {
	rng := tensor.NewRNG(24)
	l := bound(NewSplitConcat(2, NewIdentity(), NewConv2D("b", 3, 4, 3, 1, 1, 1, true)), rng)
	x := tensor.Randn(rng, 1, 5, 2, 4, 4)
	if y := l.Forward(x.Clone(), true); y.Shape[0] != 6 {
		t.Fatalf("split-concat channels = %d, want 6", y.Shape[0])
	}
	checkLayerGradients(t, l, x, 2e-2)
}

func TestChannelShuffleInverse(t *testing.T) {
	rng := tensor.NewRNG(15)
	l := NewChannelShuffle(2)
	x := tensor.Randn(rng, 1, 6, 2, 3, 3)
	y := l.Forward(x, true)
	// Backward must be the inverse permutation: shuffle(x) then backward
	// with shuffle(x) recovers x.
	back := l.Backward(y)
	for i := range x.Data {
		if x.Data[i] != back.Data[i] {
			t.Fatal("ChannelShuffle backward is not the inverse permutation")
		}
	}
}

func TestSEBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(16)
	l := bound(NewSEBlock("se", 4, 2), rng)
	x := tensor.Randn(rng, 1, 4, 2, 3, 3)
	checkLayerGradients(t, l, x, 3e-2)
}

func TestSequentialComposition(t *testing.T) {
	rng := tensor.NewRNG(17)
	l := bound(NewSequential(
		NewConv2D("c1", 1, 2, 3, 1, 1, 1, true),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear("fc", 2*2*2, 3),
	), rng)
	x := tensor.Randn(rng, 1, 1, 2, 4, 4)
	y := l.Forward(x.Clone(), true)
	if y.Shape[0] != 2 || y.Shape[1] != 3 {
		t.Fatalf("output shape %v, want (2,3)", y.Shape)
	}
	checkLayerGradients(t, l, x, 2e-2)
}

// planeTagged returns a CNHW batch (c, n, 2, 2) whose plane of channel ch and
// image i holds 10·i + ch.
func planeTagged(c, n int) *tensor.Tensor {
	x := tensor.New(c, n, 2, 2)
	for j := range x.Data {
		ch, i := j/(4*n), j/4%n
		x.Data[j] = float32(10*i + ch)
	}
	return x
}

// TestFlattenRoundTrip pins the exit from CNHW: image i's row holds its
// planes in channel order, and Backward puts every value back.
func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := planeTagged(3, 2)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	for j, v := range y.Data {
		if i, ch := j/12, j%12/4; v != float32(10*i+ch) {
			t.Fatalf("row %d column %d = %v, want image %d channel %d", i, j%12, v, i, ch)
		}
	}
	dx := f.Backward(y)
	if len(dx.Shape) != 4 || dx.Shape[3] != 2 {
		t.Fatalf("unflatten shape %v", dx.Shape)
	}
	for j, v := range x.Data {
		if dx.Data[j] != v {
			t.Fatalf("unflatten[%d] = %v, want %v", j, dx.Data[j], v)
		}
	}
}

// TestGlobalAvgPoolRowsAreImages pins the other exit: row i of the (N, C)
// output holds image i's channel means, in channel order.
func TestGlobalAvgPoolRowsAreImages(t *testing.T) {
	y := NewGlobalAvgPool().Forward(planeTagged(3, 2), true)
	for j, v := range y.Data {
		if i, ch := j/3, j%3; v != float32(10*i+ch) {
			t.Fatalf("y[%d][%d] = %v, want %v", i, ch, v, 10*i+ch)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(18)
	logits := tensor.Randn(rng, 5, 4, 7)
	p := Softmax(logits)
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 7; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	p := Softmax(logits)
	var s float64
	for _, v := range p.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax produced NaN/Inf on large logits")
		}
		s += float64(v)
	}
	if math.Abs(s-1) > 1e-5 {
		t.Fatalf("sum %v", s)
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(19)
	logits := tensor.Randn(rng, 1, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := CrossEntropy(logits, labels)
	const eps = 1e-3
	for trial := 0; trial < 6; trial++ {
		idx := rng.Intn(logits.Len())
		orig := logits.Data[idx]
		logits.Data[idx] = orig + eps
		up, _ := CrossEntropy(logits, labels)
		logits.Data[idx] = orig - eps
		down, _ := CrossEntropy(logits, labels)
		logits.Data[idx] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(float64(grad.Data[idx])-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("CE grad[%d] = %v, numeric %v", idx, grad.Data[idx], want)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float32{20, -20, -20}, 1, 3)
	loss, _ := CrossEntropy(logits, []int{0})
	if loss > 1e-5 {
		t.Fatalf("perfect prediction loss = %v", loss)
	}
}

func TestSoftCrossEntropyMatchesHardOnOneHot(t *testing.T) {
	rng := tensor.NewRNG(20)
	logits := tensor.Randn(rng, 1, 2, 4)
	labels := []int{3, 1}
	onehot := tensor.New(2, 4)
	onehot.Set(1, 0, 3)
	onehot.Set(1, 1, 1)
	lh, gh := CrossEntropy(logits, labels)
	ls, gs := SoftCrossEntropy(logits, onehot)
	if math.Abs(lh-ls) > 1e-5 {
		t.Fatalf("hard %v vs soft %v loss", lh, ls)
	}
	for i := range gh.Data {
		if math.Abs(float64(gh.Data[i]-gs.Data[i])) > 1e-5 {
			t.Fatalf("grad mismatch at %d", i)
		}
	}
}

func TestMaskedCrossEntropyIgnoresOtherClasses(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0, 100, 0}, 1, 4)
	// Class 2 has a huge logit but is not in the candidate set {0, 1};
	// the loss must behave as if it did not exist.
	loss, grad := MaskedCrossEntropy(logits, []int{0}, []int{0, 1})
	if math.Abs(loss-math.Log(2)) > 1e-5 {
		t.Fatalf("masked loss = %v, want ln2", loss)
	}
	if grad.Data[2] != 0 || grad.Data[3] != 0 {
		t.Fatal("masked-out classes must get zero gradient")
	}
}

func TestFlattenParamsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(21)
	l := bound(NewSequential(NewLinear("a", 3, 4), NewReLU(), NewLinear("b", 4, 2)), rng)
	ps := l.Params()
	flat := FlattenParams(ps)
	if len(flat) != NumParams(ps) {
		t.Fatalf("flat length %d, want %d", len(flat), NumParams(ps))
	}
	want := NumParams(ps)
	if want != 3*4+4+4*2+2 {
		t.Fatalf("NumParams = %d", want)
	}
	// The vector is the parameters in order: writing it back tensor by
	// tensor, shifted, flattens to the shifted vector, and the first copy is
	// unaffected.
	off := 0
	for _, p := range ps {
		for j := range p.W.Data {
			p.W.Data[j] = flat[off+j] + 1
		}
		off += p.W.Len()
	}
	got := FlattenParams(ps)
	for i := range flat {
		if got[i] != flat[i]+1 {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestZeroGrads(t *testing.T) {
	rng := tensor.NewRNG(22)
	l := bound(NewLinear("a", 2, 2), rng)
	x := tensor.Randn(rng, 1, 1, 2)
	y := l.Forward(x, true)
	l.Backward(y)
	ZeroGrads(l.Params())
	for _, p := range l.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("ZeroGrads left non-zero gradient")
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A tiny end-to-end sanity check: a linear classifier must fit a
	// linearly separable batch with plain SGD on our backward pass.
	rng := tensor.NewRNG(23)
	l := bound(NewLinear("fc", 2, 2), rng)
	x := tensor.FromSlice([]float32{
		1, 1,
		1, 0.8,
		-1, -1,
		-0.8, -1,
	}, 4, 2)
	labels := []int{0, 0, 1, 1}
	var first, last float64
	for step := 0; step < 200; step++ {
		logits := l.Forward(x, true)
		loss, dl := CrossEntropy(logits, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		ZeroGrads(l.Params())
		l.Backward(dl)
		for _, p := range l.Params() {
			p.W.Axpy(-0.5, p.Grad)
		}
	}
	if last > first/10 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
}

// bound binds a standalone layer into arenas of its own, as model.newModel
// binds a network, and returns it.
func bound[L Layer](l L, rng *tensor.RNG) L {
	Bind(l, rng)
	return l
}

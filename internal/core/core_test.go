package core

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

func tinyModel(rng *tensor.RNG) *model.Model {
	return model.MustBuild("SixCNN", 8, 3, 12, 12, 1, rng)
}

func tinyClientTask(rng *tensor.RNG, classes []int) data.ClientTask {
	ds := data.Generate(data.Config{Name: "t", NumClasses: 8, TrainPerClass: 8,
		TestPerClass: 3, C: 3, H: 12, W: 12, Noise: 0.3, Seed: rng.Uint64()})
	ct := data.ClientTask{TaskID: 0, Classes: classes}
	for _, s := range ds.Train {
		for _, c := range classes {
			if s.Y == c {
				ct.Train = append(ct.Train, s)
			}
		}
	}
	for _, s := range ds.Test {
		for _, c := range classes {
			if s.Y == c {
				ct.Test = append(ct.Test, s)
			}
		}
	}
	return ct
}

func TestExtractorKeepsRhoFraction(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := tinyModel(rng.Fork(1))
	ct := tinyClientTask(rng.Fork(2), []int{0, 1})
	e := NewKnowledgeExtractor(0.1)
	k := e.Extract(m, ct, rng.Fork(3))
	want := (m.NumParams() + 5) / 10 // ≈ 10 %
	got := k.Store.Len()
	if got < want-2 || got > want+2 {
		t.Fatalf("retained %d of %d, want ≈ %d", got, m.NumParams(), want)
	}
	if k.TaskID != ct.TaskID {
		t.Fatal("task id not recorded")
	}
}

func TestExtractorPreservesLiveModel(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := tinyModel(rng.Fork(1))
	before := nn.FlattenParams(m.Params())
	ct := tinyClientTask(rng.Fork(2), []int{0, 1})
	NewKnowledgeExtractor(0.1).Extract(m, ct, rng.Fork(3))
	after := nn.FlattenParams(m.Params())
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("extraction must not mutate the live model")
		}
	}
}

func TestExtractorFinetunesStoredCopy(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := tinyModel(rng.Fork(1))
	ct := tinyClientTask(rng.Fork(2), []int{0, 1})
	e := NewKnowledgeExtractor(0.1)
	e.FinetuneIters = 5
	k := e.Extract(m, ct, rng.Fork(3))
	// Fine-tuning must move at least one stored value away from the raw
	// extraction of the same weights.
	raw := nn.FlattenParams(m.Params())
	moved := false
	for i, idx := range k.Store.Indices {
		if k.Store.Values[i] != raw[idx] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fine-tune did not update stored knowledge")
	}
}

func TestRestorerPreservesModelState(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := tinyModel(rng.Fork(1))
	ct := tinyClientTask(rng.Fork(2), []int{0, 1})
	k := NewKnowledgeExtractor(0.1).Extract(m, ct, rng.Fork(3))
	r := NewGradientRestorer(m)
	before := nn.FlattenParams(m.Params())
	x := tensor.Randn(rng.Fork(5), 1, 4, 3, 12, 12)
	g := r.Restore(k, x)
	after := nn.FlattenParams(m.Params())
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("restore must not mutate live parameters")
		}
	}
	if len(g) != m.NumParams() {
		t.Fatalf("gradient length %d, want %d", len(g), m.NumParams())
	}
}

func TestRestorerProducesNonZeroGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := tinyModel(rng.Fork(1))
	ct := tinyClientTask(rng.Fork(2), []int{0, 1})
	k := NewKnowledgeExtractor(0.1).Extract(m, ct, rng.Fork(3))
	// Perturb the live model so it disagrees with the knowledge model.
	for _, p := range m.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.05
		}
	}
	m.Params()
	x := tensor.Randn(rng.Fork(6), 1, 4, 3, 12, 12)
	g := NewGradientRestorer(m).Restore(k, x)
	var norm float64
	for _, v := range g {
		norm += float64(v) * float64(v)
	}
	if norm == 0 {
		t.Fatal("restored gradient is identically zero")
	}
}

func TestRestoreAllOrder(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := tinyModel(rng.Fork(1))
	ctA := tinyClientTask(rng.Fork(2), []int{0, 1})
	ctB := tinyClientTask(rng.Fork(3), []int{2, 3})
	e := NewKnowledgeExtractor(0.1)
	ks := []*TaskKnowledge{e.Extract(m, ctA, rng.Fork(4)), e.Extract(m, ctB, rng.Fork(5))}
	x := tensor.Randn(rng.Fork(7), 1, 2, 3, 12, 12)
	r := NewGradientRestorer(m)
	all := r.RestoreAll(ks, x)
	if len(all) != 2 {
		t.Fatalf("RestoreAll returned %d gradients", len(all))
	}
	// Copied out: the slices live in the restorer's buffers until its next call.
	all = [][]float32{append([]float32(nil), all[0]...), append([]float32(nil), all[1]...)}
	for j, k := range ks {
		one := r.Restore(k, x)
		for i := range one {
			if math.Float32bits(all[j][i]) != math.Float32bits(one[i]) {
				t.Fatalf("RestoreAll must match per-task Restore bit for bit, in order: task %d, gradient[%d] = %v, alone %v", j, i, all[j][i], one[i])
			}
		}
	}
}

func TestIntegratorSelectSignature(t *testing.T) {
	gi := NewGradientIntegrator()
	g := []float32{0, 0, 0, 0}
	cands := [][]float32{
		{0.1, 0.1, 0.1, 0.1},
		{9, 9, 9, 9},
		{1, 1, 1, 1},
	}
	idx := gi.SelectSignature(g, cands, 2)
	if idx[0] != 1 || idx[1] != 2 {
		t.Fatalf("signature = %v, want [1 2]", idx)
	}
}

func TestIntegrateSelectedSatisfiesSelectedConstraints(t *testing.T) {
	gi := NewGradientIntegrator()
	rng := tensor.NewRNG(8)
	dim := 32
	g := make([]float32, dim)
	rng.FillNorm(g, 1)
	cands := make([][]float32, 6)
	for i := range cands {
		cands[i] = make([]float32, dim)
		rng.FillNorm(cands[i], 1)
	}
	out := gi.IntegrateSelected(g, cands, 3)
	if len(out) != dim {
		t.Fatal("length mismatch")
	}
	// With k >= len(candidates) all constraints must hold.
	out2 := gi.IntegrateSelected(g, cands, 10)
	for _, c := range cands {
		if tensor.DotSlice(c, out2) < -1e-3 {
			t.Fatal("constraint violated with k >= all candidates")
		}
	}
}

func newTestCtx(rng *tensor.RNG) *fed.ClientCtx {
	m := tinyModel(rng.Fork(1))
	return &fed.ClientCtx{
		ID: 0, NumClients: 1, Model: m,
		Opt: opt.NewSGD(opt.Const{Rate: 0.01}, 0, 0),
		RNG: rng.Fork(2), NumClasses: 8,
	}
}

func TestFedKNOWTrainStepReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(9)
	ctx := newTestCtx(rng)
	f := New(ctx, Options{Rho: 0.1, K: 2, FinetuneIters: 0})
	ct := tinyClientTask(rng.Fork(3), []int{0, 1, 2})
	var first, last float64
	for step := 0; step < 30; step++ {
		idx := ctx.RNG.Perm(len(ct.Train))[:8]
		x, labels := data.Batch(ct.Train, idx, 3, 12, 12)
		loss := f.TrainStep(x, labels, ct.Classes)
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestFedKNOWTaskEndAccumulatesKnowledge(t *testing.T) {
	rng := tensor.NewRNG(10)
	ctx := newTestCtx(rng)
	f := New(ctx, DefaultOptions())
	f.TaskEnd(tinyClientTask(rng.Fork(3), []int{0, 1}))
	f.TaskEnd(tinyClientTask(rng.Fork(4), []int{2, 3}))
	if len(f.Knowledge()) != 2 {
		t.Fatalf("knowledge count %d", len(f.Knowledge()))
	}
	if f.MemoryBytes() <= 0 {
		t.Fatal("memory accounting missing")
	}
	// ρ = 10 % → each record stores ≈ numParams/10 entries at 8 bytes.
	perTask := f.MemoryBytes() / 2
	expect := ctx.Model.NumParams() / 10 * 8
	if perTask < expect/2 || perTask > expect*2 {
		t.Fatalf("per-task knowledge %d bytes, expected ≈ %d", perTask, expect)
	}
}

func TestFedKNOWTrainStepWithKnowledgeIntegrates(t *testing.T) {
	rng := tensor.NewRNG(11)
	ctx := newTestCtx(rng)
	f := New(ctx, Options{Rho: 0.1, K: 1, FinetuneIters: 0, SelectEvery: 2})
	ctOld := tinyClientTask(rng.Fork(3), []int{0, 1})
	f.TaskEnd(ctOld)
	ctNew := tinyClientTask(rng.Fork(4), []int{4, 5})
	for step := 0; step < 6; step++ {
		idx := ctx.RNG.Perm(len(ctNew.Train))[:6]
		x, labels := data.Batch(ctNew.Train, idx, 3, 12, 12)
		loss := f.TrainStep(x, labels, ctNew.Classes)
		if loss != loss {
			t.Fatal("NaN loss during integrated training")
		}
	}
}

func TestFedKNOWAfterAggregatePreservesShape(t *testing.T) {
	rng := tensor.NewRNG(12)
	ctx := newTestCtx(rng)
	f := New(ctx, Options{Rho: 0.1, K: 2, FinetuneIters: 2})
	ct := tinyClientTask(rng.Fork(3), []int{0, 1})
	pre := nn.FlattenParams(ctx.Model.Params())
	// Shift the model as if the server replaced it.
	for _, p := range ctx.Model.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.01
		}
	}
	f.AfterAggregate(pre, ct)
	after := nn.FlattenParams(ctx.Model.Params())
	if len(after) != len(pre) {
		t.Fatal("parameter count changed")
	}
	moved := false
	for i := range after {
		if after[i] != pre[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fine-tuning did not move weights")
	}
}

func TestFedKNOWOverheadGrowsWithKnowledge(t *testing.T) {
	rng := tensor.NewRNG(13)
	ctx := newTestCtx(rng)
	f := New(ctx, Options{Rho: 0.1, K: 5, FinetuneIters: 0})
	if f.OverheadFLOPs() != 0 {
		t.Fatal("no knowledge → no overhead")
	}
	f.TaskEnd(tinyClientTask(rng.Fork(3), []int{0, 1}))
	o1 := f.OverheadFLOPs()
	f.TaskEnd(tinyClientTask(rng.Fork(4), []int{2, 3}))
	o2 := f.OverheadFLOPs()
	if !(o2 > o1 && o1 > 0) {
		t.Fatalf("overhead must grow until k tasks stored: %v, %v", o1, o2)
	}
}

func TestFactoryProducesIndependentStrategies(t *testing.T) {
	rng := tensor.NewRNG(14)
	factory := Factory(DefaultOptions())
	a := factory(newTestCtx(rng.Fork(1)))
	b := factory(newTestCtx(rng.Fork(2)))
	if a == b {
		t.Fatal("factory must build fresh strategies")
	}
	if a.Name() != "FedKNOW" {
		t.Fatalf("Name = %s", a.Name())
	}
}

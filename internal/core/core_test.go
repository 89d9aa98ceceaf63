package core

import (
	"math"
	"slices"
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

// borrowingArchs are the paper's two main models: SixCNN has no BatchNorm,
// ResNet18 has running statistics a side computation could leak into.
var borrowingArchs = []string{"SixCNN", "ResNet18"}

// restoreAll runs the production restore sequence on one batch:
// PrepareTargets, the live train-mode forward a training step runs anyway,
// then RestoredGradients.
func restoreAll(r *GradientRestorer, ks []*TaskKnowledge, x *tensor.Tensor) [][]float32 {
	r.PrepareTargets(ks, x)
	return r.RestoredGradients(ks, r.m.Forward(x, true))
}

// liveState is what a side computation must leave alone: the parameters,
// every BatchNorm running statistic, and the logits of an eval-mode forward
// on a fixed probe batch.
type liveState struct{ params, stats, logits []float32 }

func captureLive(m *model.Model) liveState {
	s := liveState{params: nn.FlattenParams(m.Params())}
	nn.Walk(m.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			s.stats = append(append(s.stats, bn.RunningMean...), bn.RunningVar...)
		}
	})
	probe := tensor.Randn(tensor.NewRNG(99), 1, 4, m.InC, m.InH, m.InW)
	s.logits = append(s.logits, m.Forward(probe, false).Data...)
	return s
}

// requireLiveUnchanged fails unless m's live state is want's, bit for bit.
func requireLiveUnchanged(t *testing.T, m *model.Model, want liveState, what string) {
	t.Helper()
	got := captureLive(m)
	for _, f := range []struct {
		name      string
		got, want []float32
	}{{"parameter", got.params, want.params}, {"running statistic", got.stats, want.stats}, {"eval logit", got.logits, want.logits}} {
		for i, w := range f.want {
			if math.Float32bits(f.got[i]) != math.Float32bits(w) {
				t.Fatalf("%s changed %s %d of %d: %v, was %v", what, f.name, i, len(f.want), f.got[i], w)
			}
		}
	}
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
	for _, arch := range borrowingArchs {
		t.Run(arch, func(t *testing.T) {
			rng := tensor.NewRNG(2)
			m := model.MustBuild(arch, 8, 3, 12, 12, 1, rng.Fork(1))
			ct := tinyClientTask(rng.Fork(2), []int{0, 1})
			// One live training forward first, so the running statistics
			// are the model's own rather than their initial values.
			m.Forward(tensor.Randn(rng.Fork(4), 1, 4, 3, 12, 12), true)
			before := captureLive(m)
			NewKnowledgeExtractor(0.1).Extract(m, ct, rng.Fork(3))
			requireLiveUnchanged(t, m, before, "extraction")
		})
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
	for _, arch := range borrowingArchs {
		t.Run(arch, func(t *testing.T) {
			rng := tensor.NewRNG(4)
			m := model.MustBuild(arch, 8, 3, 12, 12, 1, rng.Fork(1))
			ct := tinyClientTask(rng.Fork(2), []int{0, 1})
			k := NewKnowledgeExtractor(0.1).Extract(m, ct, rng.Fork(3))
			m.Forward(tensor.Randn(rng.Fork(6), 1, 4, 3, 12, 12), true)
			r := NewGradientRestorer(m)
			before := captureLive(m)
			x := tensor.Randn(rng.Fork(5), 1, 4, 3, 12, 12)
			ks := []*TaskKnowledge{k}
			r.PrepareTargets(ks, x)
			requireLiveUnchanged(t, m, before, "the knowledge forwards")
			// The live forward is training and moves the statistics; the
			// distillation backwards then leave the parameters alone.
			g := r.RestoredGradients(ks, m.Forward(x, true))[0]
			if got := nn.FlattenParams(m.Params()); !slices.Equal(got, before.params) {
				t.Fatal("restore must not mutate live parameters")
			}
			if len(g) != m.NumParams() {
				t.Fatalf("gradient length %d, want %d", len(g), m.NumParams())
			}
		})
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
	g := restoreAll(NewGradientRestorer(m), []*TaskKnowledge{k}, x)[0]
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
	all := restoreAll(r, ks, x)
	if len(all) != 2 {
		t.Fatalf("restoring both tasks returned %d gradients", len(all))
	}
	// Copied out: the slices live in the restorer's buffers until its next call.
	all = [][]float32{append([]float32(nil), all[0]...), append([]float32(nil), all[1]...)}
	for j, k := range ks {
		one := restoreAll(r, []*TaskKnowledge{k}, x)[0]
		for i := range one {
			if math.Float32bits(all[j][i]) != math.Float32bits(one[i]) {
				t.Fatalf("restoring both tasks must match restoring each alone bit for bit, in order: task %d, gradient[%d] = %v, alone %v", j, i, all[j][i], one[i])
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

func newTestCtx(rng *tensor.RNG) *fed.ClientCtx {
	return newArchCtx(rng, "SixCNN")
}

func newArchCtx(rng *tensor.RNG, arch string) *fed.ClientCtx {
	m := model.MustBuild(arch, 8, 3, 12, 12, 1, rng.Fork(1))
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

// cosineSimilarity is the measured reference for the integrator's algebraic
// cosine: cos(θ) between two vectors, 0 when either has zero norm.
func cosineSimilarity(a, b []float32) float64 {
	na, nb := tensor.NormSlice(a), tensor.NormSlice(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return tensor.DotSlice(a, b) / (na * nb)
}

func TestCosineSimilarity(t *testing.T) {
	if d := cosineSimilarity([]float32{1, 0}, []float32{1, 0}); math.Abs(d-1) > 1e-9 {
		t.Fatalf("parallel cos = %v", d)
	}
	if d := cosineSimilarity([]float32{1, 0}, []float32{0, 1}); math.Abs(d) > 1e-9 {
		t.Fatalf("orthogonal cos = %v", d)
	}
	if d := cosineSimilarity([]float32{1, 0}, []float32{-1, 0}); math.Abs(d+1) > 1e-9 {
		t.Fatalf("antiparallel cos = %v", d)
	}
	if d := cosineSimilarity([]float32{0, 0}, []float32{1, 0}); d != 0 {
		t.Fatalf("zero vector cos = %v, want 0", d)
	}
}

// TestIntegrationStatsMatchMeasured holds the statistics TrainStep takes
// from the integrator's algebra to the cosine and norm ratio measured between
// g and the g′ it installs (the optimiser leaves the gradients in place),
// step by step, and counts every QP run as converged.
func TestIntegrationStatsMatchMeasured(t *testing.T) {
	f, x, labels, classes := knowledgeBearing(22, Options{Rho: 0.1, K: 10}, 3)
	for step := 0; step < 6; step++ {
		before := f.Stats
		f.TrainStep(x, labels, classes)
		g, g2 := f.gBuf, nn.FlattenGrads(f.ctx.Model.Params())
		wantCos := cosineSimilarity(g2, g)
		wantRatio := tensor.NormSlice(g2) / tensor.NormSlice(g)
		if got := f.Stats.CosSum - before.CosSum; math.Abs(got-wantCos) > 1e-6 {
			t.Errorf("step %d: cos(g′, g) from the outcome %v, measured %v", step, got, wantCos)
		}
		if got := f.Stats.NormRatioS - before.NormRatioS; math.Abs(got-wantRatio) > 1e-6 {
			t.Errorf("step %d: ‖g′‖/‖g‖ from the outcome %v, measured %v", step, got, wantRatio)
		}
	}
	if s := f.Stats; s.Steps != 6 || s.QPRuns == 0 || s.Converged != s.QPRuns || s.Degenerate != 0 {
		t.Fatalf("stats %+v: want 6 steps, QP runs, every one converged and none degenerate", s)
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

// TestAfterAggregateStatsIgnorePreAgg holds the guard's gᵇ pass to the
// borrowed model: it runs a train-mode forward at the pre-aggregation
// weights, and those batch statistics must not reach the live running
// statistics, so two different preAgg vectors leave them bit-identical.
func TestAfterAggregateStatsIgnorePreAgg(t *testing.T) {
	var stats [2][]float32
	for i := range stats {
		rng := tensor.NewRNG(15)
		ctx := newArchCtx(rng, "ResNet18")
		f := New(ctx, Options{Rho: 0.1, K: 2, FinetuneIters: 1})
		ct := tinyClientTask(rng.Fork(3), []int{0, 1})
		pre := nn.FlattenParams(ctx.Model.Params())
		for j := range pre {
			pre[j] *= float32(1 + i)
		}
		f.AfterAggregate(pre, ct)
		stats[i] = captureLive(ctx.Model).stats
	}
	if len(stats[0]) == 0 {
		t.Fatal("ResNet18 has no running statistics")
	}
	for j, w := range stats[0] {
		if math.Float32bits(stats[1][j]) != math.Float32bits(w) {
			t.Fatalf("running statistic %d is %v after one preAgg and %v after another", j, w, stats[1][j])
		}
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

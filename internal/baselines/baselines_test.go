package baselines

import (
	"testing"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

func newCtx(seed uint64) *fed.ClientCtx {
	rng := tensor.NewRNG(seed)
	m := model.MustBuild("SixCNN", 8, 3, 12, 12, 1, rng.Fork(1))
	return &fed.ClientCtx{
		ID: 0, NumClients: 4, Model: m,
		Opt: opt.NewSGD(opt.Const{Rate: 0.01}, 0, 0),
		RNG: rng.Fork(2), NumClasses: 8,
	}
}

func mkTask(seed uint64, classes []int) data.ClientTask {
	ds := data.Generate(data.Config{Name: "t", NumClasses: 8, TrainPerClass: 10,
		TestPerClass: 3, C: 3, H: 12, W: 12, Noise: 0.3, Seed: seed})
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

func trainSteps(t *testing.T, s fed.Strategy, ctx *fed.ClientCtx, ct data.ClientTask, steps int) (first, last float64) {
	t.Helper()
	for i := 0; i < steps; i++ {
		idx := ctx.RNG.Perm(len(ct.Train))[:8]
		x, labels := data.Batch(ct.Train, idx, 3, 12, 12)
		loss := s.TrainStep(x, labels, ct.Classes)
		if loss != loss {
			t.Fatalf("%s: NaN loss at step %d", s.Name(), i)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	return first, last
}

// TestRegistryComplete checks every paper baseline is registered.
func TestRegistryComplete(t *testing.T) {
	if len(Names) != 11 {
		t.Fatalf("%d baselines, want 11", len(Names))
	}
	for _, n := range Names {
		if Registry[n] == nil {
			t.Fatalf("baseline %s missing from registry", n)
		}
	}
}

// TestAllBaselinesLearn runs the full protocol surface of every baseline on
// a tiny task: steps must reduce loss, task end and aggregation hooks must
// not corrupt state.
func TestAllBaselinesLearn(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx := newCtx(100)
			s := Registry[name](ctx)
			if s.Name() != name {
				t.Fatalf("Name() = %q, want %q", s.Name(), name)
			}
			ct := mkTask(7, []int{0, 1, 2})
			first, last := trainSteps(t, s, ctx, ct, 25)
			if last >= first {
				t.Fatalf("%s: loss %v → %v did not decrease", name, first, last)
			}
			// Protocol hooks.
			pre := nn.FlattenParams(ctx.Model.Params())
			s.AfterAggregate(pre, ct)
			s.TaskEnd(ct)
			// Second task trains without NaN after hooks.
			ct2 := mkTask(8, []int{4, 5})
			trainSteps(t, s, ctx, ct2, 5)
			if s.MemoryBytes() < 0 || s.OverheadFLOPs() < 0 {
				t.Fatal("negative accounting")
			}
		})
	}
}

func TestGEMStoresMemoryFraction(t *testing.T) {
	ctx := newCtx(1)
	s := NewGEMFrac(ctx, 0.5).(*GEM)
	ct := mkTask(2, []int{0, 1})
	s.TaskEnd(ct)
	want := len(ct.Train) / 2
	if got := len(s.memories[0]); got < want-1 || got > want+1 {
		t.Fatalf("stored %d, want ≈ %d", got, want)
	}
	if s.MemoryBytes() <= 0 {
		t.Fatal("GEM memory accounting missing")
	}
}

func TestGEMMemoryGrowsWithFraction(t *testing.T) {
	ct := mkTask(3, []int{0, 1, 2})
	small := NewGEMFrac(newCtx(2), 0.1).(*GEM)
	big := NewGEMFrac(newCtx(2), 1.0).(*GEM)
	small.TaskEnd(ct)
	big.TaskEnd(ct)
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatal("100% memory must exceed 10%")
	}
}

func TestEWCImportanceAccumulates(t *testing.T) {
	ctx := newCtx(3)
	s := NewEWC(ctx).(*regularized)
	ct := mkTask(4, []int{0, 1})
	s.TaskEnd(ct)
	if s.anchor == nil {
		t.Fatal("EWC must anchor after task end")
	}
	var sum float64
	for _, v := range s.importance {
		if v < 0 {
			t.Fatal("Fisher importance must be non-negative")
		}
		sum += float64(v)
	}
	if sum == 0 {
		t.Fatal("importance is identically zero")
	}
}

func TestMASImportanceNonNegative(t *testing.T) {
	ctx := newCtx(4)
	s := NewMAS(ctx).(*regularized)
	s.TaskEnd(mkTask(5, []int{0, 1}))
	for _, v := range s.importance {
		if v < 0 {
			t.Fatal("MAS importance must be |gradient|")
		}
	}
}

func TestAGSCLFreezesTopWeights(t *testing.T) {
	ctx := newCtx(5)
	s := NewAGSCL(ctx).(*regularized)
	s.TaskEnd(mkTask(6, []int{0, 1}))
	if s.frozen == nil {
		t.Fatal("AGS-CL must freeze after task end")
	}
	frozen := 0
	for _, f := range s.frozen {
		if f {
			frozen++
		}
	}
	want := int(float64(len(s.frozen)) * 0.05)
	if frozen < want/2 || frozen > want*2 {
		t.Fatalf("frozen %d of %d, want ≈ %d", frozen, len(s.frozen), want)
	}
	// Frozen weights must not move under training.
	before := nn.FlattenParams(ctx.Model.Params())
	ct2 := mkTask(7, []int{2, 3})
	trainSteps(t, s, ctx, ct2, 3)
	after := nn.FlattenParams(ctx.Model.Params())
	for i, f := range s.frozen {
		if f && before[i] != after[i] {
			t.Fatal("frozen weight moved")
		}
	}
}

func TestFedRepMaskKeepsHeadLocal(t *testing.T) {
	ctx := newCtx(6)
	s := NewFedRep(ctx)
	mask := s.AggregateMask()
	if mask == nil {
		t.Fatal("FedRep must mask")
	}
	params := ctx.Model.Params()
	headLen := params[len(params)-1].W.Len() + params[len(params)-2].W.Len()
	n := len(mask)
	for i := n - headLen; i < n; i++ {
		if mask[i] {
			t.Fatal("head parameters must not aggregate")
		}
	}
	for i := 0; i < n-headLen; i++ {
		if !mask[i] {
			t.Fatal("representation parameters must aggregate")
		}
	}
}

func TestAPFLMixesModels(t *testing.T) {
	ctx := newCtx(7)
	s := NewAPFL(ctx).(*APFL)
	ct := mkTask(8, []int{0, 1})
	trainSteps(t, s, ctx, ct, 3)
	personal := append([]float32(nil), s.personal...)
	// Pretend the server installed a shifted global model.
	global := nn.FlattenParams(ctx.Model.Params())
	for i := range global {
		global[i] += 1
	}
	ctx.Model.SetWeights(global)
	s.AfterAggregate(personal, ct)
	mixed := nn.FlattenParams(ctx.Model.Params())
	// α=0.5: mixed must sit strictly between personal and global.
	i := 0
	want := 0.5*personal[i] + 0.5*global[i]
	if diff := mixed[i] - want; diff > 1e-5 || diff < -1e-5 {
		t.Fatalf("mixture wrong: got %v want %v", mixed[i], want)
	}
}

func TestFLCNUploadsOncePerTask(t *testing.T) {
	ctx := newCtx(8)
	s := NewFLCN(ctx).(*FLCN)
	if s.ExtraUploadBytes() != 0 {
		t.Fatal("no upload before first task end")
	}
	ct := mkTask(9, []int{0, 1})
	s.TaskEnd(ct)
	up := s.ExtraUploadBytes()
	if up <= 0 {
		t.Fatal("task end must queue a sample upload")
	}
	if s.ExtraUploadBytes() != 0 {
		t.Fatal("upload must be charged once")
	}
}

func TestFedWEITCommunicationGrowsWithTasksAndClients(t *testing.T) {
	ctx := newCtx(9)
	s := NewFedWEIT(ctx).(*FedWEIT)
	if s.ExtraDownloadBytes() != 0 {
		t.Fatal("no pool before first task")
	}
	ct := mkTask(10, []int{0, 1})
	s.TaskEnd(ct)
	d1 := s.ExtraDownloadBytes()
	s.TaskEnd(mkTask(11, []int{2, 3}))
	d2 := s.ExtraDownloadBytes()
	if !(d2 > d1 && d1 > 0) {
		t.Fatalf("download must grow with tasks: %d → %d", d1, d2)
	}
	// More clients → more pool.
	ctxBig := newCtx(9)
	ctxBig.NumClients = 20
	sBig := NewFedWEIT(ctxBig).(*FedWEIT)
	sBig.TaskEnd(ct)
	if sBig.ExtraDownloadBytes() <= d1 {
		t.Fatal("download must grow with client count")
	}
	if s.ExtraUploadBytes() <= 0 {
		t.Fatal("FedWEIT must upload adaptive weights")
	}
}

func TestFedWEITLocalHasNoPool(t *testing.T) {
	ctx := newCtx(10)
	s := NewFedWEITLocal(ctx).(*FedWEIT)
	s.TaskEnd(mkTask(11, []int{0, 1}))
	if s.ExtraDownloadBytes() != 0 {
		t.Fatal("local variant must not download the pool")
	}
	if s.Name() != "FedWEIT-local" {
		t.Fatalf("Name = %s", s.Name())
	}
	full := NewFedWEIT(newCtx(10)).(*FedWEIT)
	full.TaskEnd(mkTask(11, []int{0, 1}))
	if s.MemoryBytes() >= full.MemoryBytes() {
		t.Fatal("local variant must use less memory than the pool variant")
	}
}

func TestCo2LSnapshotsModel(t *testing.T) {
	ctx := newCtx(11)
	s := NewCo2L(ctx).(*Co2L)
	if s.prev != nil {
		t.Fatal("no snapshot before first task")
	}
	s.TaskEnd(mkTask(12, []int{0, 1}))
	if len(s.prev) != ctx.Model.NumParams() {
		t.Fatal("snapshot size wrong")
	}
	if s.OverheadFLOPs() <= 0 {
		t.Fatal("distillation overhead missing after snapshot")
	}
}

func TestBCNBalancedMemoryAcrossTasks(t *testing.T) {
	ctx := newCtx(12)
	s := NewBCN(ctx).(*BCN)
	s.TaskEnd(mkTask(13, []int{0, 1}))
	s.TaskEnd(mkTask(14, []int{2, 3}))
	task1, task2 := false, false
	for _, c := range s.memClass {
		if c == 0 || c == 1 {
			task1 = true
		}
		if c == 2 || c == 3 {
			task2 = true
		}
	}
	if !task1 || !task2 {
		t.Fatalf("memory must span both tasks: classes %v", s.memClass)
	}
}

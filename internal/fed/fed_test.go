package fed

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tinySetup builds a 3-client, 3-task CI-scale federation.
func tinySetup(seed uint64) (Config, *device.Cluster, [][]data.ClientTask, func(*tensor.RNG) *model.Model) {
	ds := data.Generate(data.Config{Name: "t", NumClasses: 12, TrainPerClass: 10,
		TestPerClass: 4, C: 3, H: 12, W: 12, Noise: 0.3, Seed: seed})
	tasks := data.SplitTasks(ds, 3)
	seqs := data.Federate(tasks, 3, data.CIAlloc(seed+1))
	cfg := Config{
		Method: "test", Rounds: 2, LocalIters: 3, BatchSize: 8,
		LR: 0.02, LRDecay: 1e-4, NumClasses: 12,
		Bandwidth: 1024 * 1024, Seed: seed,
	}
	build := func(rng *tensor.RNG) *model.Model {
		return model.MustBuild("SixCNN", 12, 3, 12, 12, 1, rng)
	}
	return cfg, device.Jetson20(), seqs, build
}

// passthrough is a minimal strategy for engine tests.
type passthrough struct {
	BaseStrategy
	ctx       *ClientCtx
	steps     int
	taskEnds  int
	aggCalls  int
	preAggSum []float32
}

func (p *passthrough) Name() string { return "passthrough" }
func (p *passthrough) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	m := p.ctx.Model
	logits := m.Forward(x, true)
	loss, dl := nn.MaskedCrossEntropy(logits, labels, classes)
	nn.ZeroGrads(m.Params())
	m.Backward(dl)
	p.ctx.Opt.Step(m.Weights(), m.Grads())
	p.steps++
	return loss
}
func (p *passthrough) AfterAggregate(pre []float32, ct data.ClientTask) {
	p.aggCalls++
	p.preAggSum = pre
}
func (p *passthrough) TaskEnd(ct data.ClientTask) { p.taskEnds++ }

func TestEngineProtocolCounts(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(1)
	var made []*passthrough
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		p := &passthrough{ctx: ctx}
		made = append(made, p)
		return p
	})
	res := e.Run()
	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points", len(res.PerTask))
	}
	for _, p := range made {
		if p.steps != 3*2*3 { // tasks × rounds × iters
			t.Fatalf("steps = %d, want 18", p.steps)
		}
		if p.taskEnds != 3 {
			t.Fatalf("taskEnds = %d", p.taskEnds)
		}
		if p.aggCalls != 3*2 {
			t.Fatalf("aggCalls = %d", p.aggCalls)
		}
	}
}

func TestEngineClientsStartIdentical(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(2)
	var flats [][]float32
	NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		flats = append(flats, nn.FlattenParams(ctx.Model.Params()))
		return &passthrough{ctx: ctx}
	})
	for i := 1; i < len(flats); i++ {
		for j := range flats[0] {
			if flats[i][j] != flats[0][j] {
				t.Fatal("clients must start from the same global model")
			}
		}
	}
}

func TestEngineAggregationConverges(t *testing.T) {
	// After a round with aggregation and no AfterAggregate mutation, all
	// clients must hold identical parameters.
	cfg, cluster, seqs, build := tinySetup(3)
	cfg.Rounds = 1
	var ctxs []*ClientCtx
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		ctxs = append(ctxs, ctx)
		p := &passthrough{ctx: ctx}
		return p
	})
	e.Run()
	ref := nn.FlattenParams(ctxs[0].Model.Params())
	for _, ctx := range ctxs[1:] {
		got := nn.FlattenParams(ctx.Model.Params())
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatal("clients diverge after aggregation with no local hook")
			}
		}
	}
}

func TestEngineLearningHappens(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(4)
	cfg.Rounds = 4
	cfg.LocalIters = 6
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		return &passthrough{ctx: ctx}
	})
	res := e.Run()
	// Accuracy on the first task right after learning it must beat the
	// 1/|classes| chance level by a clear margin (CI alloc gives each
	// client 2-3 classes → chance ≈ 0.4).
	if acc := res.Matrix.Get(0, 0); acc < 0.55 {
		t.Fatalf("first-task accuracy %v, want > 0.55", acc)
	}
}

func TestEngineTimeAndCommAccounting(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(5)
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		return &passthrough{ctx: ctx}
	})
	res := e.Run()
	last := res.PerTask[len(res.PerTask)-1]
	if last.SimHours <= 0 || last.CommHours <= 0 {
		t.Fatalf("time accounting missing: %+v", last)
	}
	if last.SimHours < last.CommHours {
		t.Fatal("total time must include communication time")
	}
	if last.UpBytes <= 0 || last.DownBytes <= 0 {
		t.Fatal("byte accounting missing")
	}
	// 3 clients × 6 rounds × model bytes each way.
	m := model.MustBuild("SixCNN", 12, 3, 12, 12, 1, tensor.NewRNG(1))
	want := int64(3 * 6 * m.ParamBytes())
	if last.UpBytes != want {
		t.Fatalf("UpBytes = %d, want %d", last.UpBytes, want)
	}
	// Monotone accumulation across tasks.
	for i := 1; i < len(res.PerTask); i++ {
		if res.PerTask[i].SimHours <= res.PerTask[i-1].SimHours {
			t.Fatal("simulated time must accumulate")
		}
		if res.PerTask[i].UpBytes <= res.PerTask[i-1].UpBytes {
			t.Fatal("bytes must accumulate")
		}
	}
}

func TestEngineLowerBandwidthCostsMoreTime(t *testing.T) {
	run := func(bw float64) float64 {
		cfg, cluster, seqs, build := tinySetup(6)
		cfg.Bandwidth = bw
		e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
			return &passthrough{ctx: ctx}
		})
		res := e.Run()
		return res.PerTask[len(res.PerTask)-1].CommHours
	}
	fast := run(10 * 1024 * 1024)
	slow := run(50 * 1024)
	if slow <= fast {
		t.Fatalf("50KB/s (%v h) must cost more than 10MB/s (%v h)", slow, fast)
	}
}

// memHog simulates a strategy whose memory grows per task, to exercise the
// OOM eviction path (the FedWEIT-on-2GB-Pi scenario).
type memHog struct {
	passthrough
	tasks int
}

func (m *memHog) TaskEnd(ct data.ClientTask) { m.tasks++ }
func (m *memHog) MemoryBytes() int           { return m.tasks * 1 << 20 } // 1 MB per task

func TestEngineOOMEviction(t *testing.T) {
	cfg, _, seqs, build := tinySetup(7)
	// Device with 3 MB of memory and MemScale 1: the hog (1 MB/task, plus
	// model overhead) must die before the last task.
	tiny := &device.Cluster{Devices: []device.Device{{Name: "tiny", FLOPS: 1e9, MemBytes: 2 << 20}}}
	cfg.MemScale = 1
	e := NewEngine(cfg, tiny, seqs[:1], build, func(ctx *ClientCtx) Strategy {
		return &memHog{passthrough: passthrough{ctx: ctx}}
	})
	res := e.Run()
	if len(res.DeadAfter) != 1 {
		t.Fatalf("expected 1 eviction, got %v", res.DeadAfter)
	}
	if e.server.AliveClients() != 0 {
		t.Fatal("client should be dead")
	}
}

func TestEngineNoOOMWithoutMemScale(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(8)
	cfg.MemScale = 0 // disabled
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		return &memHog{passthrough: passthrough{ctx: ctx}}
	})
	res := e.Run()
	if len(res.DeadAfter) != 0 {
		t.Fatal("MemScale 0 must disable eviction")
	}
}

// maskHalf aggregates only the first half of parameters.
type maskHalf struct {
	passthrough
	mask []bool
}

func (m *maskHalf) AggregateMask() []bool { return m.mask }

func TestEngineAggregateMask(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(9)
	cfg.Rounds = 1
	cfg.LocalIters = 2
	var ctxs []*ClientCtx
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		n := ctx.Model.NumParams()
		mask := make([]bool, n)
		for i := 0; i < n/2; i++ {
			mask[i] = true
		}
		ctxs = append(ctxs, ctx)
		return &maskHalf{passthrough: passthrough{ctx: ctx}, mask: mask}
	})
	e.Run()
	// The masked half aggregates (identical across clients); the unmasked
	// half stays personal (differs across clients somewhere).
	a := nn.FlattenParams(ctxs[0].Model.Params())
	b := nn.FlattenParams(ctxs[1].Model.Params())
	n := len(a)
	for i := 0; i < n/2; i++ {
		if a[i] != b[i] {
			t.Fatal("aggregated half must be identical")
		}
	}
	differ := false
	for i := n / 2; i < n; i++ {
		if a[i] != b[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("personal half should differ between clients")
	}
}

func TestEvalClientTaskChanceLevel(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := model.MustBuild("SixCNN", 10, 3, 12, 12, 1, rng)
	ds := data.Generate(data.Config{Name: "t", NumClasses: 10, TrainPerClass: 2,
		TestPerClass: 20, C: 3, H: 12, W: 12, Noise: 0.3, Seed: 11})
	ct := data.ClientTask{Classes: []int{0, 1, 2, 3, 4}, Test: ds.Test[:100]}
	// Untrained model ≈ chance on 5 classes; mainly checks masking works
	// and no crash on batched eval.
	acc := EvalClientTask(m, ct)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
	if EvalClientTask(m, data.ClientTask{}) != 0 {
		t.Fatal("empty test set must give 0")
	}
}

func TestEngineDropoutInjection(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(11)
	cfg.DropoutProb = 0.5
	var made []*passthrough
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		p := &passthrough{ctx: ctx}
		made = append(made, p)
		return p
	})
	res := e.Run()
	// Protocol still completes and produces sensible output.
	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points", len(res.PerTask))
	}
	// With 50% dropout, total steps across clients must be strictly below
	// the no-dropout total (3 clients × 3 tasks × 2 rounds × 3 iters = 54)
	// and above zero.
	total := 0
	for _, p := range made {
		total += p.steps
	}
	if total <= 0 || total >= 54 {
		t.Fatalf("dropout steps = %d, want in (0, 54)", total)
	}
	// Accuracy still above floor: the protocol tolerated churn.
	if res.Matrix.Get(0, 0) <= 0.2 {
		t.Fatalf("first-task accuracy %v under dropout", res.Matrix.Get(0, 0))
	}
}

func TestEngineDropoutAlwaysHasParticipant(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(12)
	cfg.DropoutProb = 0.999 // nearly everyone drops every round
	var made []*passthrough
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		p := &passthrough{ctx: ctx}
		made = append(made, p)
		return p
	})
	e.Run()
	total := 0
	for _, p := range made {
		total += p.steps
	}
	// Every round must have at least one participant: 3 tasks × 2 rounds ×
	// 3 iters minimum.
	if total < 18 {
		t.Fatalf("steps %d below the at-least-one-participant floor", total)
	}
}

// TestEngineAllClientsOfflineFallback pins the fallback path of the round
// loop: with DropoutProb = 1 every draw marks every client offline, so the
// server must force the first alive client back online each round — the
// protocol never runs a round with zero participants.
func TestEngineAllClientsOfflineFallback(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(13)
	cfg.DropoutProb = 1
	var made []*passthrough
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		p := &passthrough{ctx: ctx}
		made = append(made, p)
		return p
	})
	res := e.Run()
	// Exactly client 0 (the first alive client) participates in every round.
	wantSteps := 3 * 2 * 3 // tasks × rounds × iters
	if made[0].steps != wantSteps {
		t.Fatalf("fallback client steps = %d, want %d", made[0].steps, wantSteps)
	}
	for i, p := range made[1:] {
		if p.steps != 0 {
			t.Fatalf("client %d trained %d steps while permanently offline", i+1, p.steps)
		}
	}
	// Accounting sees a single-participant round: one model upload per round.
	m := model.MustBuild("SixCNN", 12, 3, 12, 12, 1, tensor.NewRNG(1))
	if want := int64(3 * 2 * m.ParamBytes()); res.PerTask[2].UpBytes != want {
		t.Fatalf("UpBytes = %d, want %d", res.PerTask[2].UpBytes, want)
	}
	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points", len(res.PerTask))
	}
}

// TestEngineObserverStreams checks the streaming lifecycle: the observer
// sees every aggregation round and every task point, in order, and the task
// points match what Run finally returns.
func TestEngineObserverStreams(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(14)
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		return &passthrough{ctx: ctx}
	})
	var rounds []RoundStats
	var points []TaskPoint
	e.SetObserver(ObserverFuncs{
		Round: func(s RoundStats) { rounds = append(rounds, s) },
		Task:  func(tp TaskPoint) { points = append(points, tp) },
	})
	res := e.Run()
	if len(rounds) != 3*2 { // tasks × rounds
		t.Fatalf("observer saw %d rounds, want 6", len(rounds))
	}
	for i, s := range rounds {
		if s.TaskIdx != i/2 || s.Round != i%2 {
			t.Fatalf("round %d out of order: %+v", i, s)
		}
		if s.Participants != 3 {
			t.Fatalf("round %d: %d participants, want 3", i, s.Participants)
		}
		if s.ComputeSeconds <= 0 || s.CommSeconds <= 0 || s.UpBytes <= 0 {
			t.Fatalf("round %d missing accounting: %+v", i, s)
		}
	}
	if len(points) != len(res.PerTask) {
		t.Fatalf("observer saw %d task points, result has %d", len(points), len(res.PerTask))
	}
	for i := range points {
		if points[i] != res.PerTask[i] {
			t.Fatalf("streamed point %d %+v != result %+v", i, points[i], res.PerTask[i])
		}
	}
}

// TestEngineContextCancel checks the cancellable lifecycle: cancelling after
// the first task stops the run, returns the partial result, and tears down
// every client goroutine (RunContext returning proves no endpoint is stuck).
func TestEngineContextCancel(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(15)
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		return &passthrough{ctx: ctx}
	})
	ctx, cancel := context.WithCancel(context.Background())
	e.SetObserver(ObserverFuncs{Task: func(TaskPoint) { cancel() }})
	res, err := e.RunContext(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.PerTask) != 1 {
		t.Fatalf("partial result has %d task points, want 1", len(res.PerTask))
	}
}

// TestEngineDeterministicAcrossParallelism is the acceptance bar for the
// parallel kernel layer and (since the Scheduler seam) for the extracted
// SyncScheduler: a full multi-task run must produce bitwise-identical
// client parameters and accuracy matrices for every combination of client
// parallelism and kernel thread count, whether the lockstep policy is
// selected implicitly (Scheduler "") or explicitly ("sync").
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	defer tensor.SetKernelThreads(0)
	run := func(par, threads int, sched string) ([]float32, []float64) {
		tensor.SetKernelThreads(threads)
		cfg, cluster, seqs, build := tinySetup(5)
		cfg.Parallelism = par
		cfg.Scheduler = sched
		var clients []*passthrough
		e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
			p := &passthrough{ctx: ctx}
			clients = append(clients, p)
			return p
		})
		res := e.Run()
		var params []float32
		for _, c := range clients {
			params = append(params, nn.FlattenParams(c.ctx.Model.Params())...)
		}
		var accs []float64
		for i := 0; i < 3; i++ {
			for j := 0; j <= i; j++ {
				accs = append(accs, res.Matrix.Get(i, j))
			}
		}
		return params, accs
	}
	refParams, refAccs := run(1, 1, "")
	combos := []struct {
		par, threads int
		sched        string
	}{
		{4, 1, ""}, {1, 4, ""}, {4, 8, ""}, {16, 16, ""},
		{1, 1, SchedulerSync}, {4, 8, SchedulerSync},
	}
	for _, combo := range combos {
		params, accs := run(combo.par, combo.threads, combo.sched)
		if len(params) != len(refParams) {
			t.Fatalf("combo %v: param count %d vs %d", combo, len(params), len(refParams))
		}
		for i := range params {
			if params[i] != refParams[i] {
				t.Fatalf("combo %v: param[%d] = %v, want %v", combo, i, params[i], refParams[i])
			}
		}
		for i := range accs {
			if accs[i] != refAccs[i] {
				t.Fatalf("combo %v: acc[%d] = %v, want %v", combo, i, accs[i], refAccs[i])
			}
		}
	}
}

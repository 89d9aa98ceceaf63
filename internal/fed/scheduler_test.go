package fed

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/tensor"
)

// TestAsyncMatchesSyncAccountingAtCohortK pins the boundary of the
// asynchronous policy: with K = cohort size, no stragglers (a uniform
// cluster) and no staleness rejections, every commit folds exactly one
// cohort round, so the per-commit participant counts and the task-level
// accounting (simulated clock, communication time, traffic) must reproduce
// the synchronous scheduler's books exactly.
func TestAsyncMatchesSyncAccountingAtCohortK(t *testing.T) {
	uniform := device.Uniform(3, device.Device{Name: "uni", FLOPS: 1e9, MemBytes: 1 << 40})
	run := func(sched string) (*Result, []RoundStats) {
		cfg, _, seqs, build := tinySetup(31)
		cfg.Scheduler = sched
		if sched == SchedulerAsync {
			cfg.Async = AsyncConfig{CommitEvery: 3, StalenessAlpha: 0.5}
		}
		e := NewEngine(cfg, uniform, seqs, build, func(ctx *ClientCtx) Strategy {
			return &passthrough{ctx: ctx}
		})
		var rounds []RoundStats
		e.SetObserver(ObserverFuncs{Round: func(s RoundStats) { rounds = append(rounds, s) }})
		res := e.Run()
		return res, rounds
	}
	syncRes, syncRounds := run(SchedulerSync)
	asyncRes, asyncRounds := run(SchedulerAsync)
	if len(asyncRounds) != len(syncRounds) {
		t.Fatalf("async made %d commits, sync made %d rounds", len(asyncRounds), len(syncRounds))
	}
	for i, s := range asyncRounds {
		if s.Participants != 3 {
			t.Fatalf("commit %d folded %d updates, want the full cohort of 3", i, s.Participants)
		}
		if s.Stale != 0 {
			t.Fatalf("commit %d rejected %d updates with no bound set", i, s.Stale)
		}
		if s.UpBytes != syncRounds[i].UpBytes || s.DownBytes != syncRounds[i].DownBytes {
			t.Fatalf("commit %d traffic %d/%d, sync round had %d/%d",
				i, s.UpBytes, s.DownBytes, syncRounds[i].UpBytes, syncRounds[i].DownBytes)
		}
	}
	for i := range syncRes.PerTask {
		s, a := syncRes.PerTask[i], asyncRes.PerTask[i]
		if a.SimHours != s.SimHours || a.CommHours != s.CommHours {
			t.Fatalf("task %d clock: async %v/%v, sync %v/%v", i, a.SimHours, a.CommHours, s.SimHours, s.CommHours)
		}
		if a.UpBytes != s.UpBytes || a.DownBytes != s.DownBytes {
			t.Fatalf("task %d traffic: async %d/%d, sync %d/%d", i, a.UpBytes, a.DownBytes, s.UpBytes, s.DownBytes)
		}
	}
	if asyncRes.PerTask[0].AvgAccuracy <= 0.2 {
		t.Fatalf("async run learned nothing: %v", asyncRes.PerTask[0].AvgAccuracy)
	}
}

// TestAsyncStalenessBoundAndVersionMonotonicity drives the asynchronous
// scheduler with scripted peers: K = 1 so every accepted update commits.
// Updates whose staleness exceeds -max-staleness must be rejected (never
// folded — the committed values prove it), versions must increase by
// exactly one per commit, and the task-final broadcast must re-announce the
// last committed version.
func TestAsyncStalenessBoundAndVersionMonotonicity(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 3, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 1, MaxStaleness: 1, StalenessAlpha: 1},
		Logf:  t.Logf,
	}, nil, []Transport{s0, s1})
	var rounds []RoundStats
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) { rounds = append(rounds, s) }})
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("server: %v", err)
		}
		done <- res
	}()

	recvRS := func(end Transport) {
		t.Helper()
		msg, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(*RoundStart); !ok {
			t.Fatalf("got %T, want *RoundStart", msg)
		}
	}
	recvGM := func(end Transport) *GlobalModel {
		t.Helper()
		msg, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		gm, ok := msg.(*GlobalModel)
		if !ok {
			t.Fatalf("got %T, want *GlobalModel", msg)
		}
		return gm
	}
	send := func(end Transport, id int, base uint64, v float32) {
		t.Helper()
		if err := end.Send(&Update{ClientID: id, Participating: true, Weight: 1,
			BaseVersion: base, Params: []float32{v}}); err != nil {
			t.Fatal(err)
		}
	}

	recvRS(c0)
	recvRS(c1)
	var versions []uint64
	var values []float32
	step := func(base uint64, v float32) {
		send(c0, 0, base, v)
		g0, g1 := recvGM(c0), recvGM(c1)
		if g0.Version != g1.Version {
			t.Fatalf("broadcast versions diverge: %d vs %d", g0.Version, g1.Version)
		}
		versions = append(versions, g0.Version)
		values = append(values, g0.Params[0])
	}
	step(0, 2) // fresh → commit v1 = [2]
	step(1, 4) // fresh → commit v2 = [4]
	// c1 trained from v0; by now the version is ≥ 2, staleness ≥ 2 > bound 1
	// → rejected: no commit, no broadcast, and 8 never reaches the global.
	send(c1, 1, 0, 8)
	step(2, 6)         // c0 again fresh → commit v3 = [6]
	send(c1, 1, 1, 10) // staleness 2 → rejected
	send(c1, 1, 3, 12) // fresh against v3 → commit v4 = [12]
	g0, g1 := recvGM(c0), recvGM(c1)
	versions = append(versions, g0.Version)
	values = append(values, g0.Params[0])
	if g1.Version != g0.Version {
		t.Fatalf("final commit versions diverge: %d vs %d", g0.Version, g1.Version)
	}
	// All six uploads are in: the server flushes (empty) and closes the task.
	f0, f1 := recvGM(c0), recvGM(c1)
	if !f0.TaskFinal || !f1.TaskFinal {
		t.Fatalf("task-final flags: %v, %v", f0.TaskFinal, f1.TaskFinal)
	}
	if f0.Version != 4 || f0.Params[0] != 12 {
		t.Fatalf("task-final global v%d = %v, want v4 = [12]", f0.Version, f0.Params)
	}
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.7}})
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.9}})

	res := <-done
	wantVals := []float32{2, 4, 6, 12}
	for i, v := range values {
		if versions[i] != uint64(i+1) {
			t.Fatalf("commit %d has version %d, want %d (monotone +1)", i, versions[i], i+1)
		}
		if v != wantVals[i] {
			t.Fatalf("commit %d global = %v, want %v (stale values must not fold)", i, v, wantVals[i])
		}
	}
	accepted, stale := 0, 0
	for _, r := range rounds {
		accepted += r.Participants
		stale += r.Stale
	}
	if accepted != 4 || stale != 2 {
		t.Fatalf("accepted %d / stale %d, want 4 / 2", accepted, stale)
	}
	if got := res.Matrix.Get(0, 0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("matrix row %v, want the survivors' mean 0.8", got)
	}
}

// TestAsyncStalenessWeight checks the α-deweighting arithmetic: with K = 2
// a commit mixing a fresh update and a staleness-1 update must weight the
// stale one by 1/(1+1)^α.
func TestAsyncStalenessWeight(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 2, StalenessAlpha: 1},
		Logf:  t.Logf,
	}, nil, []Transport{s0, s1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Run(context.Background()); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	recv := func(end Transport) *GlobalModel {
		t.Helper()
		msg, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		gm, _ := msg.(*GlobalModel)
		return gm
	}
	for _, end := range []Transport{c0, c1} {
		if _, err := end.Recv(); err != nil { // RoundStart
			t.Fatal(err)
		}
	}
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1, BaseVersion: 0, Params: []float32{2}})
	c1.Send(&Update{ClientID: 1, Participating: true, Weight: 1, BaseVersion: 0, Params: []float32{6}})
	if gm := recv(c0); gm.Version != 1 || gm.Params[0] != 4 {
		t.Fatalf("commit 1: v%d %v, want v1 [4]", gm.Version, gm.Params)
	}
	recv(c1)
	// Round 2: c0 is fresh (base 1), c1 still trains from v0 → staleness 1,
	// weight 1/(1+1)^1 = 0.5: global = (10 + 0.5·20) / 1.5.
	c0.Send(&Update{ClientID: 0, Participating: true, Weight: 1, BaseVersion: 1, Params: []float32{10}})
	c1.Send(&Update{ClientID: 1, Participating: true, Weight: 1, BaseVersion: 0, Params: []float32{20}})
	want := float64(20) / 1.5
	if gm := recv(c0); gm.Version != 2 || math.Abs(float64(gm.Params[0])-want) > 1e-5 {
		t.Fatalf("commit 2: v%d %v, want v2 [%v]", gm.Version, gm.Params, want)
	}
	recv(c1)
	for i, end := range []Transport{c0, c1} {
		if gm := recv(end); !gm.TaskFinal {
			t.Fatal("missing task-final broadcast")
		}
		end.Send(&RoundEnd{ClientID: i, EvalAccs: []float64{0.5}})
	}
	<-done
}

// TestEngineAsyncRunsAndLearns is the asynchronous end-to-end smoke test
// over loopback: real clients, real concurrency, default K. The run must
// complete every task, learn (first-task accuracy over chance), and commit
// with monotonically increasing versions.
func TestEngineAsyncRunsAndLearns(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(32)
	cfg.Scheduler = SchedulerAsync
	cfg.Async = AsyncConfig{MaxStaleness: 6, StalenessAlpha: 0.5}
	e := NewEngine(cfg, cluster, seqs, build, func(ctx *ClientCtx) Strategy {
		return &passthrough{ctx: ctx}
	})
	var lastVersion uint64
	e.SetObserver(ObserverFuncs{Round: func(s RoundStats) {
		// Every real commit bumps the version by one; a task's closing
		// stale-tail report (Participants 0) repeats it.
		if s.Participants > 0 && s.Version != lastVersion+1 {
			t.Errorf("commit version %d after %d: not monotone", s.Version, lastVersion)
		}
		if s.Participants == 0 && s.Version != lastVersion {
			t.Errorf("zero-participant report changed the version: %d after %d", s.Version, lastVersion)
		}
		lastVersion = s.Version
	}})
	res := e.Run()
	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points, want 3", len(res.PerTask))
	}
	// Async results vary with arrival order; the bar is "clearly above the
	// untrained floor", not a fixed curve (sync's reproducible bar is 0.55).
	if acc := res.Matrix.Get(0, 0); acc < 0.3 {
		t.Fatalf("first-task accuracy %v under async scheduling", acc)
	}
	if lastVersion == 0 {
		t.Fatal("no commits observed")
	}
}

// TestAsyncEvictionAfterRoundEnd pins the finish-phase bookkeeping: a
// client whose connection drops *after* it already delivered a healthy
// RoundEnd completed the task — the eviction must not be double-counted
// against the pending-report tally, or the server stops listening before
// the slower survivor reports and the leftover RoundEnd poisons the next
// task as a protocol error.
func TestAsyncEvictionAfterRoundEnd(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 2, Rounds: 1, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 1},
		Logf:  t.Logf,
	}, nil, []Transport{s0, s1})
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = srv.Run(context.Background())
		done <- err
	}()
	recvUntilFinal := func(end Transport) {
		t.Helper()
		for {
			msg, err := end.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if gm, ok := msg.(*GlobalModel); ok && gm.TaskFinal {
				return
			}
		}
	}
	startTask := func(end Transport, id int) {
		t.Helper()
		msg, err := end.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(*RoundStart); !ok {
			t.Fatalf("client %d got %T, want *RoundStart", id, msg)
		}
		end.Send(&Update{ClientID: id, Participating: true, Weight: 1, Params: []float32{1}})
	}
	// The task-final broadcast needs every upload in, so upload from both
	// before draining either end.
	startTask(c0, 0)
	startTask(c1, 1)
	recvUntilFinal(c0)
	recvUntilFinal(c1)
	// Client 0 reports healthily, then its link drops; the straggler's
	// report comes in afterwards and must still be collected.
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.7}})
	c0.Close()
	time.Sleep(50 * time.Millisecond)
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.9}})
	// Task 1 runs with the lone survivor.
	startTask(c1, 1)
	recvUntilFinal(c1)
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.8, 0.6}})
	if err := <-done; err != nil {
		t.Fatalf("run must survive a post-report connection drop: %v", err)
	}
	if len(res.PerTask) != 2 {
		t.Fatalf("%d task points, want 2", len(res.PerTask))
	}
	if _, ok := res.DeadAfter[0]; !ok {
		t.Fatalf("client 0's dropped link not recorded: %v", res.DeadAfter)
	}
	if got := res.Matrix.Get(0, 0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("task 0 row %v, want both reports averaged (0.8)", got)
	}
	if got := res.Matrix.Get(1, 1); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("task 1 row %v, want the survivor's 0.6", got)
	}
}

// TestAsyncWireEviction pins the transport-hardening contract: a TCP
// connection dropped mid-run costs that client, not the job. Client 1
// vanishes after its first upload of task 0; the server must evict it, keep
// scheduling client 0 through every remaining task, and record the loss.
func TestAsyncWireEviction(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(33)
	cfg.Scheduler = SchedulerAsync
	cfg.Async = AsyncConfig{CommitEvery: 1}
	seqs = seqs[:2]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 0: a real endpoint that lives the whole run
		defer wg.Done()
		tr, err := DialWith(addr, 0, cfg.Fingerprint(), WireOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		c := NewWireClient(cfg, 0, len(seqs), cluster.Devices[0], seqs[0], build,
			func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} })
		if err := c.Run(context.Background(), tr); err != nil {
			t.Errorf("surviving client: %v", err)
		}
	}()
	go func() { // client 1: uploads once, then the connection drops
		defer wg.Done()
		tr, err := DialWith(addr, 1, cfg.Fingerprint(), WireOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tr.Recv(); err != nil { // RoundStart
			t.Error(err)
			return
		}
		tr.Send(&Update{ClientID: 1, Participating: true, Weight: 1,
			Params: make([]float32, build(tensor.NewRNG(1)).NumParams())})
		tr.Close()
	}()
	links, err := ServeWith(ln, len(seqs), cfg.Fingerprint(), WireOptions{})
	ln.Close()
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	srv := NewServer(cfg.ServerConfigFor(len(seqs), len(seqs[0])), nil, links)
	srv.cfg.Logf = t.Logf
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatalf("server must survive a dropped client: %v", err)
	}
	wg.Wait()
	if task, ok := res.DeadAfter[1]; !ok || task != 0 {
		t.Fatalf("DeadAfter = %v, want client 1 lost at task 0", res.DeadAfter)
	}
	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points, want all 3 despite the eviction", len(res.PerTask))
	}
	if srv.AliveClients() != 1 {
		t.Fatalf("%d alive clients, want 1 survivor", srv.AliveClients())
	}
}

// TestAsyncLoopbackCapBounded pins the bounded async loopback: a
// deliberately tiny per-link buffer must not deadlock the federation — the
// client inbox pump keeps draining commits into its unbounded queue, so a
// blocking commit broadcast resolves within one pump iteration no matter how
// small the channel is. The capped run wires LoopbackCap(2) pairs into a
// server and standalone clients by hand; the reference is the engine with
// its default capacity. CommitEvery=1 maximises commit broadcasts per upload,
// the worst case for a small buffer. The commit COUNT and total
// participation are policy-determined (every upload folds and commits; no
// staleness bound means no rejections), so those books must match exactly
// even though upload arrival ORDER — and therefore the folded weights —
// varies with goroutine scheduling.
func TestAsyncLoopbackCapBounded(t *testing.T) {
	run := func(capped bool) (*Result, []RoundStats) {
		cfg, cluster, seqs, build := tinySetup(47)
		cfg.Scheduler = SchedulerAsync
		cfg.Async = AsyncConfig{CommitEvery: 1}
		factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
		var rounds []RoundStats
		obs := ObserverFuncs{Round: func(s RoundStats) { rounds = append(rounds, s) }}
		done := make(chan *Result, 1)
		if capped {
			var clients sync.WaitGroup
			links := make([]Transport, len(seqs))
			for id := range seqs {
				var cli Transport
				links[id], cli = LoopbackCap(2) // far smaller than one task's commit count
				c := NewWireClient(cfg, id, len(seqs), cluster.Devices[id%cluster.Size()], seqs[id], build, factory)
				clients.Add(1)
				go func() {
					defer clients.Done()
					if err := c.Run(context.Background(), cli); err != nil {
						t.Errorf("client %d: %v", id, err)
					}
				}()
			}
			srv := NewServer(cfg.ServerConfigFor(len(seqs), len(seqs[0])), nil, links)
			srv.SetObserver(obs)
			go func() {
				res, err := srv.Run(context.Background())
				if err != nil {
					t.Error(err)
				}
				clients.Wait()
				done <- res
			}()
		} else {
			e := NewEngine(cfg, cluster, seqs, build, factory)
			e.SetObserver(obs)
			go func() { done <- e.Run() }()
		}
		select {
		case res := <-done:
			if res == nil {
				t.FailNow()
			}
			return res, rounds
		case <-time.After(2 * time.Minute):
			t.Fatalf("federation with capped=%v did not finish: a bounded buffer must not deadlock delivery", capped)
			return nil, nil
		}
	}
	capped, cappedRounds := run(true)
	dflt, dfltRounds := run(false)
	if len(cappedRounds) != len(dfltRounds) {
		t.Fatalf("capped run made %d commits, default made %d", len(cappedRounds), len(dfltRounds))
	}
	for i, c := range cappedRounds {
		if c.Participants != 1 || c.Stale != 0 {
			t.Fatalf("commit %d folded %d updates with %d rejections, want 1 and 0 at K=1 with no staleness bound",
				i, c.Participants, c.Stale)
		}
	}
	if len(capped.PerTask) != len(dflt.PerTask) {
		t.Fatalf("capped run finished %d tasks, default %d", len(capped.PerTask), len(dflt.PerTask))
	}
	for i := range dflt.PerTask {
		c, d := capped.PerTask[i], dflt.PerTask[i]
		if c.UpBytes != d.UpBytes || c.DownBytes != d.DownBytes {
			t.Fatalf("task %d traffic: capped %d/%d, default %d/%d — the cap must not change what is delivered",
				i, c.UpBytes, c.DownBytes, d.UpBytes, d.DownBytes)
		}
	}
	if capped.PerTask[0].AvgAccuracy <= 0.2 {
		t.Fatalf("capped run learned nothing: %v", capped.PerTask[0].AvgAccuracy)
	}
}

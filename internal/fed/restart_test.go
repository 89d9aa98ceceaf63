package fed

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/tensor"
)

// memSink is an in-memory SnapshotSink for scripted tests. The snapshot's
// slices alias live server state, so Save deep-copies before returning —
// exactly what the interface contract demands of a real sink.
type memSink struct {
	mu    sync.Mutex
	snaps []checkpoint.ServerSnapshot
}

func (m *memSink) Save(s *checkpoint.ServerSnapshot) error {
	cp := *s
	cp.Global = append([]float32(nil), s.Global...)
	cp.Seats = append([]checkpoint.SeatRecord(nil), s.Seats...)
	cp.Tasks = append([]checkpoint.TaskRecord(nil), s.Tasks...)
	cp.Matrix = nil
	for _, row := range s.Matrix {
		cp.Matrix = append(cp.Matrix, append([]float64(nil), row...))
	}
	cp.WindowIdx = append([]int32(nil), s.WindowIdx...)
	cp.WindowVals = append([]float32(nil), s.WindowVals...)
	m.mu.Lock()
	m.snaps = append(m.snaps, cp)
	m.mu.Unlock()
	return nil
}

// waitFor polls the sink until a saved snapshot satisfies the predicate.
func (m *memSink) waitFor(t *testing.T, what string, pred func(*checkpoint.ServerSnapshot) bool) checkpoint.ServerSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		for i := len(m.snaps) - 1; i >= 0; i-- {
			if pred(&m.snaps[i]) {
				cp := m.snaps[i]
				m.mu.Unlock()
				return cp
			}
		}
		m.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot cut satisfying %q", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hasVersion reports whether a cut at global version v has been saved.
func (m *memSink) hasVersion(v uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.snaps {
		if s.Version == v {
			return true
		}
	}
	return false
}

// TestServerSnapshotRestoreResumesMidTask pins the tentpole contract with
// scripted peers and a real on-disk store: a server killed mid-task leaves a
// commit cut behind; a second server built from that cut re-admits both
// clients through the rejoin path with phase-aware Catchups (Seen counts
// authoritative, parameters only for the client that is behind), resumes the
// interrupted task at the right round, keeps the global version and commit
// ordinals monotone across the process boundary, and completes the run with
// full books — no task reported twice, no seat lost, no byte forgotten.
func TestServerSnapshotRestoreResumesMidTask(t *testing.T) {
	const fp = 0xF00D
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir, 3, fp)
	if err != nil {
		t.Fatal(err)
	}
	logf, _ := watchLogs()
	cfg := ServerConfig{
		Method: "test", NumTasks: 2, Rounds: 2, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 1},
		Logf:  logf,
	}
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(cfg, nil, []Transport{s0, s1})
	srv.SetSnapshots(store)
	ctx, crash := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	sendUpdate(t, c0, 0, 0, 2) // commit v1 = [2]
	recvGlobal(t, c0)
	recvGlobal(t, c1)
	sendUpdate(t, c1, 1, 1, 6) // commit v2 = [6]
	recvGlobal(t, c0)
	recvGlobal(t, c1)

	// Crash: both clients have installed v2, both are owed one more upload
	// of task 0, and the newest durable cut is v2's — written ahead of the
	// broadcast the clients just received.
	crash()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled", err)
	}
	c0.Close()
	c1.Close()

	// The restart half opens the store fresh, like a new process would.
	store2, err := checkpoint.OpenStore(dir, 3, fp)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store2.Load()
	if err != nil || snap == nil {
		t.Fatalf("load after crash: snap=%v err=%v", snap, err)
	}
	if snap.Version != 2 || snap.TaskIdx != 0 || snap.CommitIdx != 2 {
		t.Fatalf("cut at version %d task %d commit %d, want v2 task 0 commit 2",
			snap.Version, snap.TaskIdx, snap.CommitIdx)
	}
	if len(snap.Global) != 1 || snap.Global[0] != 6 {
		t.Fatalf("cut global %v, want the broadcast v2 [6]", snap.Global)
	}
	if len(snap.Tasks) != 0 {
		t.Fatalf("cut records %d completed tasks mid-task 0, want 0", len(snap.Tasks))
	}
	for i, seat := range snap.Seats {
		if !seat.Alive || seat.Dead || seat.Seen != 1 {
			t.Fatalf("seat %d = %+v, want alive with 1 upload in", i, seat)
		}
	}

	srv2, err := NewServerFromSnapshot(cfg, nil, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rejoins := make(chan admission, 2)
	srv2.admits = rejoins
	srv2.SetSnapshots(store2)
	firstRound := -1
	var obsOnce sync.Once
	srv2.SetObserver(ObserverFuncs{Round: func(s RoundStats) {
		obsOnce.Do(func() { firstRound = s.Round })
	}})
	done2 := make(chan *Result, 1)
	go func() {
		res, err := srv2.Run(context.Background())
		if err != nil {
			t.Errorf("restored run: %v", err)
		}
		done2 <- res
	}()

	// Client 0 rejoins already holding the cut's version: the Catchup names
	// its resume point but carries no parameters.
	sR0, cR0 := LoopbackCap(64)
	rejoins <- admission{seat: 0, lastVersion: 2, link: sR0}
	cu0 := recvCatchup(t, cR0)
	if cu0.TaskIdx != 0 || cu0.Seen != 1 || cu0.TaskFinal || cu0.TaskDone {
		t.Fatalf("catch-up 0 %+v, want task 0, seen 1, no flags", cu0)
	}
	if cu0.Version != 2 || len(cu0.Params) != 0 {
		t.Fatalf("catch-up 0 v%d with %d params, want v2 and none (client is current)",
			cu0.Version, len(cu0.Params))
	}

	// Client 1 lost the v2 broadcast in the crash: its Catchup replays it.
	sR1, cR1 := LoopbackCap(64)
	rejoins <- admission{seat: 1, lastVersion: 1, link: sR1}
	cu1 := recvCatchup(t, cR1)
	if cu1.Version != 2 || len(cu1.Params) != 1 || cu1.Params[0] != 6 {
		t.Fatalf("catch-up 1 v%d %v, want the replayed v2 [6]", cu1.Version, cu1.Params)
	}
	if cu1.Seen != 1 {
		t.Fatalf("catch-up 1 seen %d, want the cut's authoritative 1", cu1.Seen)
	}

	// Each client owes exactly one more task-0 upload; version numbering
	// continues from the cut.
	sendUpdate(t, cR0, 0, 2, 10) // commit v3 = [10]
	if gm := recvGlobal(t, cR0); gm.Version != 3 || gm.Params[0] != 10 {
		t.Fatalf("post-restart commit v%d %v, want the continuation v3 [10]", gm.Version, gm.Params)
	}
	recvGlobal(t, cR1)
	sendUpdate(t, cR1, 1, 3, 14) // commit v4 = [14]
	recvGlobal(t, cR0)
	recvGlobal(t, cR1)
	f0, f1 := recvGlobal(t, cR0), recvGlobal(t, cR1)
	if !f0.TaskFinal || !f1.TaskFinal {
		t.Fatalf("task-final flags %v/%v after the owed uploads", f0.TaskFinal, f1.TaskFinal)
	}
	cR0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.6}})
	cR1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.8}})

	// Task 1 proceeds normally on the rejoined links.
	recvRoundStart(t, cR0)
	recvRoundStart(t, cR1)
	base := uint64(4)
	for i := 0; i < 2; i++ {
		sendUpdate(t, cR0, 0, base, float32(20+i))
		recvGlobal(t, cR0)
		recvGlobal(t, cR1)
		base++
		sendUpdate(t, cR1, 1, base, float32(30+i))
		recvGlobal(t, cR0)
		recvGlobal(t, cR1)
		base++
	}
	recvGlobal(t, cR0) // task-final
	recvGlobal(t, cR1)
	cR0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5, 0.7}})
	cR1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.5, 0.9}})

	res := <-done2
	if firstRound != 2 {
		t.Fatalf("first post-restart commit ordinal %d, want the cut's CommitIdx 2", firstRound)
	}
	if len(res.PerTask) != 2 || res.PerTask[0].TaskIdx != 0 || res.PerTask[1].TaskIdx != 1 {
		t.Fatalf("per-task points %+v, want tasks 0 and 1 exactly once", res.PerTask)
	}
	if len(res.DeadAfter) != 0 {
		t.Fatalf("DeadAfter = %v, want empty — both clients rejoined", res.DeadAfter)
	}
	if srv2.AliveClients() != 2 {
		t.Fatalf("%d alive clients, want the cohort restored to 2", srv2.AliveClients())
	}
	if got := res.Matrix.Acc[0][0]; got != 0.7 {
		t.Fatalf("task-0 accuracy %v, want the rejoined cohort's mean 0.7", got)
	}
}

// TestServerSnapshotRestoresMidWindow pins the open-window half of the
// crash-only contract, for both the single-loop and a sharded fold layout:
// a server killed after folding 2 of the 3 updates of a CommitEvery=3 window
// leaves a mid-window cut behind (the partial sums, not just the last
// commit); the restored server's Catchup says Seen=2 — the client retrains
// nothing — and the commit closed by the one remaining upload is bitwise the
// commit the uninterrupted run would have made.
func TestServerSnapshotRestoresMidWindow(t *testing.T) {
	// n is large enough that the three updates' union stays under the
	// aggregators' sparse→full switchover, so the sparse capture regime is
	// what round-trips through the cut.
	const n = 40
	mkUpdate := func(i int, base uint64) *Update {
		sp := []*tensor.SparseVec{
			{N: n, Indices: []int32{0, 2}, Values: []float32{1.5, -2}},
			{N: n, Indices: []int32{2, 39}, Values: []float32{0.25, 3}},
			{N: n, Indices: []int32{1, 2}, Values: []float32{-0.5, 1.25}},
		}[i]
		return &Update{ClientID: 0, Participating: true, Weight: 1, BaseVersion: base, Sparse: sp}
	}
	// The uninterrupted reference: all three updates through one window.
	ref := &WeightedFedAvg{}
	want := append([]float32(nil), ref.Aggregate([]*Update{mkUpdate(0, 0), mkUpdate(1, 0), mkUpdate(2, 0)})...)

	for _, shards := range []int{0, 4} {
		logf, _ := watchLogs()
		cfg := ServerConfig{
			Method: "test", NumTasks: 1, Rounds: 3, Scheduler: SchedulerAsync,
			Async:  AsyncConfig{CommitEvery: 3},
			Shards: shards,
			Logf:   logf,
		}
		sink := &memSink{}
		s0, c0 := LoopbackCap(64)
		srv := NewServer(cfg, nil, []Transport{s0})
		srv.SetSnapshots(sink)
		ctx, crash := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := srv.Run(ctx)
			done <- err
		}()

		recvRoundStart(t, c0)
		if err := c0.Send(mkUpdate(0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := c0.Send(mkUpdate(1, 0)); err != nil {
			t.Fatal(err)
		}
		// Wait for the second mid-window cut to be durable, then crash: two
		// folds live only in aggregator scratch and the cut.
		snap := sink.waitFor(t, "open window holding 2 updates", func(s *checkpoint.ServerSnapshot) bool {
			return s.WindowCount == 2
		})
		crash()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: crashed run returned %v", shards, err)
		}
		c0.Close()

		if snap.Version != 0 || snap.Seats[0].Seen != 2 || snap.WindowDense || snap.WindowTotal != 2 {
			t.Fatalf("shards=%d: mid-window cut %+v, want v0, Seen 2, sparse window of total weight 2", shards, &snap)
		}
		if len(snap.WindowIdx) != len(snap.WindowVals) || len(snap.WindowIdx) == 0 {
			t.Fatalf("shards=%d: window carries %d indices, %d values", shards, len(snap.WindowIdx), len(snap.WindowVals))
		}

		srv2, err := NewServerFromSnapshot(cfg, nil, &snap)
		if err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		rejoins := make(chan admission, 1)
		srv2.admits = rejoins
		sink2 := &memSink{}
		srv2.SetSnapshots(sink2)
		done2 := make(chan *Result, 1)
		go func() {
			res, err := srv2.Run(context.Background())
			if err != nil {
				t.Errorf("shards=%d: restored run: %v", shards, err)
			}
			done2 <- res
		}()

		sR, cR := LoopbackCap(64)
		rejoins <- admission{seat: 0, lastVersion: 0, link: sR}
		cu := recvCatchup(t, cR)
		if cu.Seen != 2 || cu.TaskIdx != 0 {
			t.Fatalf("shards=%d: catch-up %+v, want task 0 with 2 uploads already in — nothing retrained", shards, cu)
		}
		if err := cR.Send(mkUpdate(2, 0)); err != nil {
			t.Fatal(err)
		}
		gm := recvGlobal(t, cR)
		if gm.Version != 1 {
			t.Fatalf("shards=%d: post-restore commit at v%d, want v1", shards, gm.Version)
		}
		if len(gm.Params) != n {
			t.Fatalf("shards=%d: commit carries %d params, want %d", shards, len(gm.Params), n)
		}
		for i := range want {
			if gm.Params[i] != want[i] {
				t.Fatalf("shards=%d: restored commit[%d] = %v, uninterrupted %v — the mid-window fold must resume bitwise",
					shards, i, gm.Params[i], want[i])
			}
		}
		// The write-ahead cut of that commit must record an emptied window:
		// restoring it resumes after the commit, not inside it.
		commitCut := sink2.waitFor(t, "commit cut at v1", func(s *checkpoint.ServerSnapshot) bool {
			return s.Version == 1
		})
		if commitCut.WindowCount != 0 || len(commitCut.WindowVals) != 0 {
			t.Fatalf("shards=%d: commit cut still holds a %d-update window", shards, commitCut.WindowCount)
		}
		final := recvGlobal(t, cR)
		if !final.TaskFinal {
			t.Fatalf("shards=%d: expected the task-final broadcast", shards)
		}
		cR.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}})
		res := <-done2
		if len(res.PerTask) != 1 || res.DeadAfter[0] != 0 && len(res.DeadAfter) != 0 {
			t.Fatalf("shards=%d: restored run books %+v", shards, res)
		}
	}
}

// TestSnapshotWriteAheadOfBroadcast pins the crash-consistency invariant
// directly: by the time a client receives a GlobalModel at version v, a cut
// at version v is already in the sink. Without this ordering a crash between
// broadcast and snapshot would restore a server behind its own cohort, and
// the first resumed upload (BaseVersion > server version) would abort the
// run as a protocol violation.
func TestSnapshotWriteAheadOfBroadcast(t *testing.T) {
	sink := &memSink{}
	logf, _ := watchLogs()
	s0, c0 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 1},
		Logf:  logf,
	}, nil, []Transport{s0})
	srv.SetSnapshots(sink)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Run(context.Background()); err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	recvRoundStart(t, c0)
	if !sink.hasVersion(0) {
		t.Fatal("no genesis cut at version 0 before the first commit")
	}
	base := uint64(0)
	for i := 0; i < 2; i++ {
		sendUpdate(t, c0, 0, base, float32(i+1))
		gm := recvGlobal(t, c0)
		if !sink.hasVersion(gm.Version) {
			t.Fatalf("received broadcast v%d before its cut was durable", gm.Version)
		}
		base = gm.Version
	}
	recvGlobal(t, c0) // task-final
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}})
	<-done
}

// TestServerRestoreValidation: a snapshot only restores into a run shape it
// actually fits — the async scheduler (lockstep has no rejoin splice point),
// the same cohort size, a sane resume task, and a global model to replay.
func TestServerRestoreValidation(t *testing.T) {
	good := func() *checkpoint.ServerSnapshot {
		return &checkpoint.ServerSnapshot{
			Version: 1, TaskIdx: 0, Global: []float32{1},
			Seats: make([]checkpoint.SeatRecord, 2),
		}
	}
	async := ServerConfig{Method: "test", NumTasks: 2, Rounds: 1,
		Scheduler: SchedulerAsync, Async: AsyncConfig{CommitEvery: 1}}

	if _, err := NewServerFromSnapshot(ServerConfig{Method: "test", NumTasks: 2, Rounds: 1}, nil, good()); err == nil {
		t.Fatal("restoring a sync run must be refused, not hang waiting for rejoins")
	}
	cfg := async
	cfg.NumClients = 3
	if _, err := NewServerFromSnapshot(cfg, nil, good()); err == nil {
		t.Fatal("a 2-seat snapshot must not restore into a 3-client run")
	}
	snap := good()
	snap.TaskIdx = 5
	if _, err := NewServerFromSnapshot(async, nil, snap); err == nil {
		t.Fatal("a resume task beyond NumTasks must be refused")
	}
	snap = good()
	snap.Global = nil
	if _, err := NewServerFromSnapshot(async, nil, snap); err == nil {
		t.Fatal("a committed version with no global model must be refused")
	}
	snap = good()
	snap.Tasks = make([]checkpoint.TaskRecord, 2)
	if _, err := NewServerFromSnapshot(async, nil, snap); err == nil {
		t.Fatal("2 completed tasks resuming at task 0 must be refused")
	}
	if _, err := NewServerFromSnapshot(async, nil, good()); err != nil {
		t.Fatalf("a consistent snapshot must restore: %v", err)
	}
}

// TestReconnectJitterDeterministic pins the rejoin backoff jitter: full
// jitter in [d/2, d), reproducible per client across runs, decorrelated
// across clients — a restart disconnects the whole cohort at once, and
// phase-locked retry waves would slam the recovering listener together.
func TestReconnectJitterDeterministic(t *testing.T) {
	schedule := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond,
	}
	draw := func(id int) []time.Duration {
		rng := tensor.NewRNG(reconnectJitterSeed(id))
		out := make([]time.Duration, len(schedule))
		for i, d := range schedule {
			out[i] = jitterDelay(rng, d)
		}
		return out
	}
	a, b := draw(1), draw(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("client 1 draw %d: %v vs %v — jitter must be reproducible per client", i, a[i], b[i])
		}
		if a[i] < schedule[i]/2 || a[i] >= schedule[i] {
			t.Fatalf("draw %d = %v outside [%v, %v)", i, a[i], schedule[i]/2, schedule[i])
		}
	}
	c := draw(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("clients 1 and 2 drew identical jitter schedules — the herd stays phase-locked")
	}
	if got := jitterDelay(tensor.NewRNG(1), 0); got != 0 {
		t.Fatalf("zero delay jittered to %v", got)
	}
}

// TestServerCrashRestartRecovers is the end-to-end crash bar over real TCP:
// the server process "dies" mid-task (run cancelled, listener closed), a
// replacement is rebuilt from the newest durable snapshot on the same
// address, and the reconnecting clients redial through the rejoin path and
// finish the run — every task reported exactly once across the process
// boundary, no seat lost, accounting carried over.
func TestServerCrashRestartRecovers(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(42)
	cfg.Scheduler = SchedulerAsync
	cfg.Async = AsyncConfig{CommitEvery: 1, StalenessAlpha: 0.5}
	fp := cfg.Fingerprint()
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir, 2, fp)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := NewWireClient(cfg, id, len(seqs), cluster.Devices[id], seqs[id], build, factory)
			err := c.RunReconnect(context.Background(), Reconnect{
				Addr: addr, Fingerprint: fp,
				Attempts: 400, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(i)
	}

	// Incarnation one: snapshots on, killed at the first commit of task 1.
	links, err := ServeWith(ln, len(seqs), fp, WireOptions{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	logf, _ := watchLogs()
	scfg := cfg.ServerConfigFor(len(seqs), len(seqs[0]))
	scfg.Logf = logf
	srv := NewServer(scfg, nil, links)
	if err := srv.Accept(ln, fp, WireOptions{}); err != nil {
		t.Fatal(err)
	}
	srv.SetSnapshots(store)
	crashCtx, crash := context.WithCancel(context.Background())
	var kill sync.Once
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) {
		if s.TaskIdx >= 1 && s.Participants > 0 {
			kill.Do(crash)
		}
	}})
	if _, err := srv.Run(crashCtx); err == nil {
		t.Fatal("killed run must return its cancellation, not complete")
	}

	// Incarnation two: rebind the same address (clients are redialing it),
	// reopen the store like a fresh process, restore, and accept rejoins.
	var ln2 net.Listener
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	store2, err := checkpoint.OpenStore(dir, 2, fp)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store2.Load()
	if err != nil {
		t.Fatalf("loading the crash cut: %v", err)
	}
	if snap == nil || snap.Version == 0 {
		t.Fatalf("crash cut %+v, want a committed snapshot on disk", snap)
	}
	srv2, err := NewServerFromSnapshot(scfg, nil, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := srv2.Accept(ln2, fp, WireOptions{}); err != nil {
		t.Fatal(err)
	}
	srv2.SetSnapshots(store2)
	res, err := srv2.Run(context.Background())
	if err != nil {
		t.Fatalf("restored run must complete: %v", err)
	}
	wg.Wait()

	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points, want all 3 exactly once across the restart", len(res.PerTask))
	}
	for i, tp := range res.PerTask {
		if tp.TaskIdx != i {
			t.Fatalf("task point %d reports task %d — duplicated or skipped across the restart", i, tp.TaskIdx)
		}
		if tp.AvgAccuracy <= 0 {
			t.Fatalf("task %d accuracy %v: the restored cohort's reports must land", i, tp.AvgAccuracy)
		}
	}
	if srv2.AliveClients() != len(seqs) {
		t.Fatalf("%d alive clients, want the cohort restored to %d", srv2.AliveClients(), len(seqs))
	}
	if len(res.DeadAfter) != 0 {
		t.Fatalf("DeadAfter = %v, want empty — every client rejoined the restarted server", res.DeadAfter)
	}
	sent, recv := srv2.WireTraffic()
	if sent == 0 || recv == 0 {
		t.Fatalf("measured traffic %d/%d, want non-zero including the pre-crash carry", sent, recv)
	}
}

// TestRobustRestartDropsWindowLoudly pins the honest failure mode of the
// crash-only contract under a robust rule: a buffered aggregator (median and
// friends) cannot export an open commit window as partial sums, so a cut
// taken mid-window carries only the window's accounting. On restart those
// folded-but-uncommitted uploads are gone — the restored server must say so
// in the log AND count them in Server.DroppedWindowUploads, never silently
// absorb the loss. The run itself still completes: the rejoined client's
// remaining quota closes the restarted (empty) window.
func TestRobustRestartDropsWindowLoudly(t *testing.T) {
	logf, _ := watchLogs()
	cfg := ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 3, Scheduler: SchedulerAsync,
		Async:  AsyncConfig{CommitEvery: 3},
		Robust: "median",
		Logf:   logf,
	}
	sink := &memSink{}
	s0, c0 := LoopbackCap(64)
	srv := NewServer(cfg, nil, []Transport{s0})
	srv.SetSnapshots(sink)
	ctx, crash := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		done <- err
	}()

	recvRoundStart(t, c0)
	sendUpdate(t, c0, 0, 0, 10)
	sendUpdate(t, c0, 0, 0, 20)
	// Two of the window's three updates are folded — buffered inside the
	// robust rule, with only their count in the cut — when the crash hits.
	snap := sink.waitFor(t, "open window holding 2 updates", func(s *checkpoint.ServerSnapshot) bool {
		return s.WindowCount == 2
	})
	crash()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled", err)
	}
	c0.Close()

	if snap.Version != 0 || snap.WindowCount != 2 || len(snap.WindowIdx) != 0 || len(snap.WindowVals) != 0 {
		t.Fatalf("mid-window robust cut %+v, want v0 with count 2 and no partial sums "+
			"(buffered rules cannot export an open window)", &snap)
	}
	if snap.Seats[0].Seen != 2 {
		t.Fatalf("cut says seat 0 delivered %d uploads, want the authoritative 2", snap.Seats[0].Seen)
	}

	logf2, waitLog2 := watchLogs()
	cfg.Logf = logf2
	srv2, err := NewServerFromSnapshot(cfg, nil, &snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rejoins := make(chan admission, 1)
	srv2.admits = rejoins
	done2 := make(chan *Result, 1)
	go func() {
		res, err := srv2.Run(context.Background())
		if err != nil {
			t.Errorf("restored run: %v", err)
		}
		done2 <- res
	}()
	// The drop must be loud: one log line naming the rule and the count...
	waitLog2(t, "cannot restore an open commit window; dropping 2 buffered uploads")

	sR, cR := LoopbackCap(64)
	rejoins <- admission{seat: 0, lastVersion: 0, link: sR}
	cu := recvCatchup(t, cR)
	if cu.TaskIdx != 0 || cu.Seen != 2 {
		t.Fatalf("catch-up %+v, want task 0 with the cut's 2 uploads still credited", cu)
	}
	// ...and the client retrains nothing: its one remaining upload closes
	// the restarted window, so the commit is the median of that upload alone.
	sendUpdate(t, cR, 0, 0, 42)
	if gm := recvGlobal(t, cR); gm.Version != 1 || gm.Params[0] != 42 {
		t.Fatalf("post-restart commit v%d %v, want v1 [42] — the dropped folds must not leak in",
			gm.Version, gm.Params)
	}
	if f := recvGlobal(t, cR); !f.TaskFinal {
		t.Fatalf("quota complete, want the task-final broadcast, got %+v", f)
	}
	cR.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.9}})

	res := <-done2
	// ...and countable after the fact, for operators and CI alike.
	if got := srv2.DroppedWindowUploads(); got != 2 {
		t.Fatalf("DroppedWindowUploads() = %d, want the 2 buffered uploads the cut could not carry", got)
	}
	if srv.DroppedWindowUploads() != 0 {
		t.Fatalf("the crashed server counted %d dropped uploads, want 0 (it never restored)",
			srv.DroppedWindowUploads())
	}
	if len(res.PerTask) != 1 || res.Matrix.Get(0, 0) != 0.9 {
		t.Fatalf("restored run books: %+v, matrix %v — the run must still complete",
			res.PerTask, res.Matrix.Get(0, 0))
	}
	cR.Close()
}

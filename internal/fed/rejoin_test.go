package fed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// watchLogs routes ServerConfig.Logf lines to a channel so scripted tests
// can synchronise on server-side events (evictions land asynchronously —
// the reader goroutine has to notice the closed link first).
func watchLogs() (logf func(string, ...any), wait func(t *testing.T, substr string)) {
	ch := make(chan string, 64)
	logf = func(f string, a ...any) {
		select {
		case ch <- fmt.Sprintf(f, a...):
		default:
		}
	}
	wait = func(t *testing.T, substr string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case line := <-ch:
				if strings.Contains(line, substr) {
					return
				}
			case <-deadline:
				t.Fatalf("timed out waiting for server log containing %q", substr)
			}
		}
	}
	return logf, wait
}

func recvRoundStart(t *testing.T, end Transport) *RoundStart {
	t.Helper()
	msg, err := end.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := msg.(*RoundStart)
	if !ok {
		t.Fatalf("got %T, want *RoundStart", msg)
	}
	return rs
}

func recvGlobal(t *testing.T, end Transport) *GlobalModel {
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

func recvCatchup(t *testing.T, end Transport) *Catchup {
	t.Helper()
	msg, err := end.Recv()
	if err != nil {
		t.Fatal(err)
	}
	cu, ok := msg.(*Catchup)
	if !ok {
		t.Fatalf("got %T, want *Catchup", msg)
	}
	return cu
}

func sendUpdate(t *testing.T, end Transport, id int, base uint64, v float32) {
	t.Helper()
	if err := end.Send(&Update{ClientID: id, Participating: true, Weight: 1,
		BaseVersion: base, Params: []float32{v}}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncRejoinMidTaskResumes pins the tentpole contract with scripted
// peers: a client that drops mid-task and rejoins gets a Catchup naming the
// current task, the number of its uploads the server already holds, and the
// *current* global version with its parameters; it then finishes the task
// on the fresh link, and the run ends with the seat restored — AliveClients
// back to the cohort size, DeadAfter empty, and the rejoined client's
// accuracy in the matrix.
func TestAsyncRejoinMidTaskResumes(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	logf, waitLog := watchLogs()
	rejoins := make(chan admission, 2)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 1},
		Logf:  logf,
	}, nil, []Transport{s0, s1})
	srv.admits = rejoins
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("server: %v", err)
		}
		done <- res
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	sendUpdate(t, c0, 0, 0, 2) // commit v1 = [2]
	if gm := recvGlobal(t, c0); gm.Version != 1 {
		t.Fatalf("commit 1 version %d", gm.Version)
	}
	recvGlobal(t, c1)
	sendUpdate(t, c1, 1, 1, 6) // commit v2 = [6]
	recvGlobal(t, c0)
	recvGlobal(t, c1)

	// Client 1 drops after its first upload; wait until the seat is evicted.
	c1.Close()
	waitLog(t, "evicted client 1")

	// Rejoin on a fresh link, last-seen version 1 (it installed v1 before
	// the drop).
	sNew, cNew := LoopbackCap(64)
	rejoins <- admission{seat: 1, lastVersion: 1, link: sNew}
	cu := recvCatchup(t, cNew)
	if cu.TaskIdx != 0 || cu.Seen != 1 || cu.TaskFinal || cu.TaskDone {
		t.Fatalf("catch-up %+v, want task 0, seen 1, no flags", cu)
	}
	if cu.Version != 2 || len(cu.Params) != 1 || cu.Params[0] != 6 {
		t.Fatalf("catch-up global v%d %v, want the current v2 [6]", cu.Version, cu.Params)
	}

	// The rejoined seat resumes at round Seen=1: one upload left, fresh
	// against the catch-up version.
	sendUpdate(t, cNew, 1, cu.Version, 10) // commit v3 = [10]
	recvGlobal(t, c0)
	recvGlobal(t, cNew)
	sendUpdate(t, c0, 0, 3, 14) // c0's second upload → commit v4, all in
	recvGlobal(t, c0)
	recvGlobal(t, cNew)
	f0, f1 := recvGlobal(t, c0), recvGlobal(t, cNew)
	if !f0.TaskFinal || !f1.TaskFinal {
		t.Fatalf("task-final flags %v/%v", f0.TaskFinal, f1.TaskFinal)
	}
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.6}})
	cNew.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.8}})

	res := <-done
	if len(res.DeadAfter) != 0 {
		t.Fatalf("DeadAfter = %v, want empty after rejoin", res.DeadAfter)
	}
	if srv.AliveClients() != 2 {
		t.Fatalf("%d alive clients, want the full cohort of 2", srv.AliveClients())
	}
	if got := res.Matrix.Get(0, 0); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("matrix row %v, want both reports averaged (0.7) — the rejoined client's accuracy must count", got)
	}
}

// TestAsyncRejoinStaleGetsFreshCatchup: a client whose last-seen version is
// far beyond -max-staleness is not rejected at rejoin — staleness bounds
// *updates*, not seats. It gets a fresh catch-up (the current version and
// parameters) and its post-catch-up uploads are fresh and accepted.
func TestAsyncRejoinStaleGetsFreshCatchup(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	logf, waitLog := watchLogs()
	rejoins := make(chan admission, 2)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 3, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 1, MaxStaleness: 1},
		Logf:  logf,
	}, nil, []Transport{s0, s1})
	srv.admits = rejoins
	var rounds []RoundStats
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) { rounds = append(rounds, s) }})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Run(context.Background()); err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	// Client 1 drops before uploading anything; client 0 commits twice
	// (still owing its third, so the collect phase stays open).
	c1.Close()
	waitLog(t, "evicted client 1")
	sendUpdate(t, c0, 0, 0, 2)
	recvGlobal(t, c0)
	sendUpdate(t, c0, 0, 1, 4)
	recvGlobal(t, c0)

	// Rejoining 2 versions behind the current one — beyond MaxStaleness 1 —
	// must yield a fresh catch-up, not a rejection.
	sNew, cNew := LoopbackCap(64)
	rejoins <- admission{seat: 1, lastVersion: 0, link: sNew}
	cu := recvCatchup(t, cNew)
	if cu.TaskFinal || cu.TaskDone {
		t.Fatalf("catch-up %+v, want a plain mid-collect catch-up", cu)
	}
	if cu.Seen != 0 || cu.Version != 2 || len(cu.Params) != 1 || cu.Params[0] != 4 {
		t.Fatalf("catch-up %+v, want seen 0 with the fresh v2 [4]", cu)
	}
	step := func(end Transport, id int, base uint64, v float32) {
		sendUpdate(t, end, id, base, v)
		recvGlobal(t, c0)
		recvGlobal(t, cNew)
	}
	step(cNew, 1, cu.Version, 8) // fresh against the catch-up → v3
	step(cNew, 1, 3, 12)         // v4
	step(cNew, 1, 4, 16)         // v5
	step(c0, 0, 5, 20)           // client 0's last upload → v6, all in
	recvGlobal(t, c0)            // task final
	recvGlobal(t, cNew)
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}})
	cNew.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.5}})
	<-done

	accepted, stale := 0, 0
	for _, r := range rounds {
		accepted += r.Participants
		stale += r.Stale
	}
	if accepted != 6 || stale != 0 {
		t.Fatalf("accepted %d / stale %d, want all 6 accepted, 0 stale — the catch-up resets the seat's staleness", accepted, stale)
	}
}

// TestAsyncRejoinLiveSeatRefused: a rejoin claiming a seat that is still
// alive (a duplicate, or an impersonation attempt) is refused — the link is
// closed without a Catchup and the live seat is untouched. Out-of-range IDs
// are refused the same way.
func TestAsyncRejoinLiveSeatRefused(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	logf, waitLog := watchLogs()
	rejoins := make(chan admission, 2)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 2},
		Logf:  logf,
	}, nil, []Transport{s0, s1})
	srv.admits = rejoins
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Run(context.Background()); err != nil {
			t.Errorf("server: %v", err)
		}
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	sDup, cDup := LoopbackCap(4)
	rejoins <- admission{seat: 0, lastVersion: 0, link: sDup}
	waitLog(t, "refused rejoin for client 0")
	if _, err := cDup.Recv(); err != io.EOF {
		t.Fatalf("double-rejoin of a live seat: peer got %v, want io.EOF (refusal)", err)
	}
	sBad, cBad := LoopbackCap(4)
	rejoins <- admission{seat: 99, lastVersion: 0, link: sBad}
	waitLog(t, "refused rejoin for unknown client 99")
	if _, err := cBad.Recv(); err != io.EOF {
		t.Fatalf("out-of-range rejoin: peer got %v, want io.EOF", err)
	}

	// The live cohort is unaffected: the task still completes on the
	// original links.
	sendUpdate(t, c0, 0, 0, 2)
	sendUpdate(t, c1, 1, 0, 4)
	recvGlobal(t, c0)
	recvGlobal(t, c1)
	recvGlobal(t, c0) // task final
	recvGlobal(t, c1)
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}})
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.5}})
	<-done
	if srv.AliveClients() != 2 {
		t.Fatalf("%d alive clients after refused rejoins, want 2", srv.AliveClients())
	}
}

// TestAsyncRejoinAfterFinalBroadcast: a seat that dropped after the task's
// collect phase closed (the task-final broadcast already went out) rejoins
// into the finish phase. An unreported seat gets a TaskFinal catch-up — it
// installs the final global, evaluates, and its report still lands in the
// matrix.
func TestAsyncRejoinAfterFinalBroadcast(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	logf, waitLog := watchLogs()
	rejoins := make(chan admission, 2)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 2},
		Logf:  logf,
	}, nil, []Transport{s0, s1})
	srv.admits = rejoins
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("server: %v", err)
		}
		done <- res
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	sendUpdate(t, c0, 0, 0, 2)
	sendUpdate(t, c1, 1, 0, 6)
	recvGlobal(t, c0) // commit v1
	recvGlobal(t, c1)
	recvGlobal(t, c0) // task final
	recvGlobal(t, c1)
	// Client 1 received the final broadcast but drops before reporting.
	c1.Close()
	waitLog(t, "evicted client 1")

	sNew, cNew := LoopbackCap(64)
	rejoins <- admission{seat: 1, lastVersion: 1, link: sNew}
	cu := recvCatchup(t, cNew)
	if !cu.TaskFinal || cu.TaskDone {
		t.Fatalf("catch-up %+v, want TaskFinal (the seat still owes its report)", cu)
	}
	if len(cu.Params) != 1 || cu.Params[0] != 4 {
		t.Fatalf("catch-up params %v, want the final global [4]", cu.Params)
	}
	cNew.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.9}})
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.7}})

	res := <-done
	if got := res.Matrix.Get(0, 0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("matrix row %v, want both reports averaged (0.8)", got)
	}
	if len(res.DeadAfter) != 0 || srv.AliveClients() != 2 {
		t.Fatalf("seat not restored: DeadAfter %v, alive %d", res.DeadAfter, srv.AliveClients())
	}
}

// TestAsyncRejoinAfterReportGetsTaskDone: a seat that dropped *after* its
// RoundEnd landed rejoins into the finish phase. Its task is already
// closed, so the catch-up says TaskDone — the client must not evaluate or
// report again (a second report would corrupt the pending tally) — and the
// run completes with the original report standing.
func TestAsyncRejoinAfterReportGetsTaskDone(t *testing.T) {
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	logf, waitLog := watchLogs()
	rejoins := make(chan admission, 2)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, Scheduler: SchedulerAsync,
		Async: AsyncConfig{CommitEvery: 2},
		Logf:  logf,
	}, nil, []Transport{s0, s1})
	srv.admits = rejoins
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("server: %v", err)
		}
		done <- res
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	sendUpdate(t, c0, 0, 0, 2)
	sendUpdate(t, c1, 1, 0, 6)
	recvGlobal(t, c0)
	recvGlobal(t, c1)
	recvGlobal(t, c0) // task final
	recvGlobal(t, c1)
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.9}})
	c1.Close()
	waitLog(t, "evicted client 1")

	sNew, cNew := LoopbackCap(64)
	rejoins <- admission{seat: 1, lastVersion: 1, link: sNew}
	cu := recvCatchup(t, cNew)
	if !cu.TaskDone || cu.TaskFinal {
		t.Fatalf("catch-up %+v, want TaskDone (the seat already reported)", cu)
	}
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.7}})

	res := <-done
	if got := res.Matrix.Get(0, 0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("matrix row %v, want 0.8 — the pre-drop report must stand exactly once", got)
	}
	if srv.AliveClients() != 2 {
		t.Fatalf("%d alive clients, want the rejoined cohort of 2", srv.AliveClients())
	}
}

// TestWireRejoinHandshakeRejects pins the acceptor-level validation: a
// rejoin hello with a mismatched job fingerprint or an out-of-range seat is
// rejected at the handshake (connection closed, nothing delivered), while a
// valid rejoin is delivered with its last-seen version intact.
func TestWireRejoinHandshakeRejects(t *testing.T) {
	cfg, _, _, _ := tinySetup(41)
	fp := cfg.Fingerprint()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() {
		if _, err := DialWith(addr, 0, fp, WireOptions{}); err != nil {
			t.Error(err)
		}
	}()
	links, err := ServeWith(ln, 1, fp, WireOptions{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The acceptor alone, without a run to consume what it delivers.
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, Scheduler: SchedulerAsync,
		Logf: func(string, ...any) {},
	}, nil, links)
	if err := srv.Accept(ln, fp, WireOptions{}); err != nil {
		t.Fatal(err)
	}
	srv.acc.start()
	defer links[0].Close()

	expectClosed := func(tr Transport, what string) {
		t.Helper()
		if _, err := tr.Recv(); err == nil {
			t.Fatalf("%s: got a reply, want the connection closed at the handshake", what)
		}
		tr.Close()
	}
	bad, err := DialRejoinWith(addr, 0, fp+1, 3, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expectClosed(bad, "fingerprint mismatch")
	oob, err := DialRejoinWith(addr, 7, fp, 0, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expectClosed(oob, "out-of-range seat")

	good, err := DialRejoinWith(addr, 0, fp, 42, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case rq := <-srv.admits:
		if rq.seat != 0 || rq.lastVersion != 42 {
			t.Fatalf("delivered rejoin %+v, want client 0 at version 42", rq)
		}
		rq.link.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("valid rejoin never delivered")
	}
	if err := srv.acc.close(); err != nil {
		t.Fatalf("acceptor close: %v", err)
	}
	good.Close()
}

// TestSyncEvictKeepsCohortGoing: with ServerConfig.SyncEvict the lockstep
// scheduler evicts a dropped client and finishes the run with the
// survivors; without it (the default) the same drop aborts the run — the
// reproducibility contract.
func TestSyncEvictKeepsCohortGoing(t *testing.T) {
	run := func(evict bool) (*Result, error) {
		s0, c0 := Loopback()
		s1, c1 := Loopback()
		logf, _ := watchLogs()
		srv := NewServer(ServerConfig{
			Method: "test", NumTasks: 1, Rounds: 1, SyncEvict: evict, Logf: logf,
		}, nil, []Transport{s0, s1})
		done := make(chan error, 1)
		var res *Result
		go func() {
			var err error
			res, err = srv.Run(context.Background())
			done <- err
		}()
		recvRoundStart(t, c0)
		recvRoundStart(t, c1)
		c1.Close() // drops before uploading
		sendUpdate(t, c0, 0, 0, 2)
		if evict {
			recvGlobal(t, c0)
			c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.9}})
		}
		err := <-done
		c0.Close()
		return res, err
	}

	res, err := run(true)
	if err != nil {
		t.Fatalf("sync-evict run must survive the drop: %v", err)
	}
	if task, ok := res.DeadAfter[1]; !ok || task != 0 {
		t.Fatalf("DeadAfter = %v, want client 1 lost at task 0", res.DeadAfter)
	}
	if len(res.PerTask) != 1 || math.Abs(res.Matrix.Get(0, 0)-0.9) > 1e-12 {
		t.Fatalf("survivor's result wrong: %+v, matrix %v", res.PerTask, res.Matrix.Get(0, 0))
	}
	if _, err := run(false); err == nil {
		t.Fatal("default lockstep must abort on a dropped client")
	}
}

// TestClientTaskDoneCatchupFinishes pins the client side of the TaskDone
// catch-up: resumed on the *final* task with TaskDone (its report landed
// before the drop), the client must recognise the run as complete, so the
// server's shutdown EOF reads as a clean exit — not as another drop for
// RunReconnect to retry against a gone listener. A mid-sequence TaskDone
// must leave the run unfinished.
func TestClientTaskDoneCatchupFinishes(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(43)
	cfg.Scheduler = SchedulerAsync
	run := func(taskIdx int) *Client {
		c := NewWireClient(cfg, 0, len(seqs), cluster.Devices[0], seqs[0], build,
			func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} })
		srvEnd, cliEnd := LoopbackCap(8)
		srvEnd.Close() // nothing follows the catch-up: the run is over
		cu := &Catchup{TaskIdx: taskIdx, Seen: cfg.Rounds, Version: 1, TaskDone: true}
		if err := c.asyncLoop(context.Background(), cliEnd, newInbox(cliEnd, false), cu); err != nil {
			t.Fatalf("task-done resume at task %d: %v", taskIdx, err)
		}
		return c
	}
	if c := run(len(seqs[0]) - 1); !c.finished {
		t.Fatal("TaskDone on the final task must mark the run finished (clean shutdown, not a drop)")
	}
	if c := run(0); c.finished {
		t.Fatal("TaskDone mid-sequence must leave the run unfinished")
	}
}

// killProxy is a minimal TCP proxy with a kill switch: it forwards bytes
// between clients and the upstream server, and Kill severs every active
// connection pair — the test's stand-in for a network partition or a
// crashed NAT. The listener stays open, so a reconnecting client can dial
// through again.
type killProxy struct {
	ln       net.Listener
	upstream string
	mu       sync.Mutex
	conns    []net.Conn
	closed   bool
}

func newKillProxy(t *testing.T, upstream string) *killProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killProxy{ln: ln, upstream: upstream}
	go p.loop()
	return p
}

func (p *killProxy) addr() string { return p.ln.Addr().String() }

func (p *killProxy) loop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.upstream)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			io.Copy(dst, src)
			dst.Close()
			src.Close()
		}
		go pipe(up, down)
		go pipe(down, up)
	}
}

// Kill severs every active connection; the listener keeps accepting.
func (p *killProxy) Kill() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *killProxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.Kill()
}

// TestWireKillAndRejoin is the end-to-end churn bar over real TCP: one
// client's connection is severed mid-task (through a kill proxy), its
// RunReconnect loop rejoins with the catch-up handshake, and the run
// completes every task with the cohort restored — no seat lost, no task
// skipped, no training state discarded.
func TestWireKillAndRejoin(t *testing.T) {
	cfg, cluster, seqs, build := tinySetup(42)
	cfg.Scheduler = SchedulerAsync
	cfg.Async = AsyncConfig{CommitEvery: 1, StalenessAlpha: 0.5}
	seqs = seqs[:2]
	fp := cfg.Fingerprint()
	factory := func(ctx *ClientCtx) Strategy { return &passthrough{ctx: ctx} }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := newKillProxy(t, ln.Addr().String())
	defer proxy.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 0: plain endpoint, direct connection
		defer wg.Done()
		tr, err := DialWith(ln.Addr().String(), 0, fp, WireOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		c := NewWireClient(cfg, 0, len(seqs), cluster.Devices[0], seqs[0], build, factory)
		if err := c.Run(context.Background(), tr); err != nil {
			t.Errorf("client 0: %v", err)
		}
	}()
	go func() { // client 1: reconnecting endpoint, through the kill proxy
		defer wg.Done()
		c := NewWireClient(cfg, 1, len(seqs), cluster.Devices[1], seqs[1], build, factory)
		err := c.RunReconnect(context.Background(), Reconnect{
			Addr: proxy.addr(), Fingerprint: fp,
			Attempts: 60, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("reconnecting client: %v", err)
		}
	}()

	links, err := ServeWith(ln, len(seqs), fp, WireOptions{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	srv := NewServer(cfg.ServerConfigFor(len(seqs), len(seqs[0])), nil, links)
	if err := srv.Accept(ln, fp, WireOptions{}); err != nil {
		t.Fatal(err)
	}
	logf, _ := watchLogs()
	srv.cfg.Logf = logf
	var kill sync.Once
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) {
		if s.Participants > 0 {
			kill.Do(proxy.Kill) // sever client 1 after the first commit
		}
	}})
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatalf("server must survive the kill: %v", err)
	}
	wg.Wait()

	if len(res.PerTask) != 3 {
		t.Fatalf("%d task points, want all 3 despite the kill", len(res.PerTask))
	}
	if srv.AliveClients() != 2 {
		t.Fatalf("%d alive clients, want the cohort restored to 2", srv.AliveClients())
	}
	if len(res.DeadAfter) != 0 {
		t.Fatalf("DeadAfter = %v, want empty — the killed client rejoined", res.DeadAfter)
	}
	for i, tp := range res.PerTask {
		if tp.AvgAccuracy <= 0 {
			t.Fatalf("task %d accuracy %v: the rejoined cohort's reports must land", i, tp.AvgAccuracy)
		}
	}
	sent, recv := srv.WireTraffic()
	if sent == 0 || recv == 0 {
		t.Fatalf("measured traffic %d/%d, want non-zero including the retired link", sent, recv)
	}
}

// TestWireByteCountersConcurrent exercises the transport's byte counters
// the way the async protocol does — one goroutine sending, one receiving,
// others reading the totals concurrently (the server's traffic summary, an
// observer polling mid-run). Run under -race this pins the counters'
// atomicity; it also checks the totals still balance.
func TestWireByteCountersConcurrent(t *testing.T) {
	a, b := net.Pipe()
	ta, tb := NewWireWith(a, WireOptions{}), NewWireWith(b, WireOptions{})
	const frames = 100
	params := make([]float32, 512)
	for i := range params {
		params[i] = float32(i) + 0.5
	}
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() { // concurrent accounting reader
		defer sampler.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = ta.BytesSent() + ta.BytesRecv() + tb.BytesSent() + tb.BytesRecv()
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sender
		defer wg.Done()
		for i := 0; i < frames; i++ {
			if err := ta.Send(&GlobalModel{Params: params, Version: uint64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // receiver
		defer wg.Done()
		for i := 0; i < frames; i++ {
			if _, err := tb.Recv(); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	sampler.Wait()
	ta.Close()
	tb.Close()
	if ta.BytesSent() == 0 || ta.BytesSent() != tb.BytesRecv() {
		t.Fatalf("sent %d, peer received %d", ta.BytesSent(), tb.BytesRecv())
	}
}

// errDeadlineConn fakes a stream whose deadline calls fail — the shape of a
// socket that died between frames. The transport must surface that error
// immediately instead of discarding it and failing later with a confusing
// EOF.
type errDeadlineConn struct{ err error }

func (c *errDeadlineConn) Read([]byte) (int, error)        { return 0, io.EOF }
func (c *errDeadlineConn) Write(p []byte) (int, error)     { return len(p), nil }
func (c *errDeadlineConn) Close() error                    { return nil }
func (c *errDeadlineConn) SetReadDeadline(time.Time) error { return c.err }
func (c *errDeadlineConn) SetWriteDeadline(time.Time) error {
	return c.err
}

// TestWireDeadlineErrorsPropagate: SetReadDeadline/SetWriteDeadline error
// returns must not be silently discarded — a dead socket fails fast with
// the real error.
func TestWireDeadlineErrorsPropagate(t *testing.T) {
	sentinel := errors.New("use of closed file descriptor")
	tr := NewWireWith(&errDeadlineConn{err: sentinel}, WireOptions{Timeout: time.Second})
	if err := tr.Send(&RoundStart{}); !errors.Is(err, sentinel) {
		t.Fatalf("Send error %v, want the deadline error", err)
	}
	if _, err := tr.Recv(); !errors.Is(err, sentinel) {
		t.Fatalf("Recv error %v, want the deadline error", err)
	}
}

package fed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// TestChurnJoinDuringCommitWindow pins the sharpest elastic corner with a
// scripted timeline: a seat admitted while a commit window is already half
// full. The founder's fold must stand, the joiner's first upload must close
// the same window, and the commit's denominator must span both seats — the
// weighting contract says a commit averages over the folds it holds, not
// over the cohort that existed when the window opened.
func TestChurnJoinDuringCommitWindow(t *testing.T) {
	logf, waitLog := watchLogs()
	sink := &memSink{}
	joins := make(chan admission, 1)
	var mu sync.Mutex
	var commits []RoundStats
	s0, c0 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, MaxCohort: 2,
		Scheduler: SchedulerAsync, Async: AsyncConfig{CommitEvery: 2},
		Logf: logf,
	}, nil, []Transport{s0})
	srv.admits = joins
	srv.SetSnapshots(sink)
	srv.SetObserver(ObserverFuncs{Round: func(s RoundStats) {
		mu.Lock()
		commits = append(commits, s)
		mu.Unlock()
	}})
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- res
	}()

	recvRoundStart(t, c0)
	sendUpdate(t, c0, 0, 0, 2)
	// The mid-window cut is the proof the fold is in and the window is still
	// open: only now is the join injected.
	sink.waitFor(t, "one fold in the open window", func(s *checkpoint.ServerSnapshot) bool {
		return s.WindowCount == 1
	})
	sJ, cJ := LoopbackCap(64)
	joins <- admission{seat: joinSeat, link: sJ}
	msg, err := cJ.Recv()
	if err != nil {
		t.Fatalf("seat assignment: %v", err)
	}
	hello, ok := msg.(*helloMsg)
	if !ok || hello.clientID != 1 {
		t.Fatalf("seat assignment %T %+v, want the hello naming seat 1", msg, msg)
	}
	cu := recvCatchup(t, cJ)
	if cu.TaskIdx != 0 || cu.Seen != 0 || cu.TaskFinal || cu.TaskDone {
		t.Fatalf("join catch-up %+v, want task 0, seen 0, no flags", cu)
	}
	if cu.Version != 0 || len(cu.Params) != 0 {
		t.Fatalf("join catch-up v%d with %d params, want v0 and none (nothing committed yet)",
			cu.Version, len(cu.Params))
	}
	waitLog(t, "admitted join as seat 1 at task 0")

	// The joiner's first upload closes the window the founder opened.
	sendUpdate(t, cJ, 1, 0, 6)
	g0, gJ := recvGlobal(t, c0), recvGlobal(t, cJ)
	if g0.Version != 1 || g0.Params[0] != 4 || gJ.Params[0] != 4 {
		t.Fatalf("first commit v%d %v/%v, want v1 [4] — the mean over both seats' folds",
			g0.Version, g0.Params, gJ.Params)
	}

	sendUpdate(t, c0, 0, 1, 10)
	sendUpdate(t, cJ, 1, 1, 14)
	if g := recvGlobal(t, c0); g.Version != 2 || g.Params[0] != 12 {
		t.Fatalf("second commit v%d %v, want v2 [12]", g.Version, g.Params)
	}
	recvGlobal(t, cJ)
	f0, fJ := recvGlobal(t, c0), recvGlobal(t, cJ)
	if !f0.TaskFinal || !fJ.TaskFinal {
		t.Fatalf("task-final flags %v/%v after both quotas", f0.TaskFinal, fJ.TaskFinal)
	}
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.25}})
	cJ.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.75}})

	res := <-done
	mu.Lock()
	first := commits[0]
	mu.Unlock()
	if first.Participants != 2 || first.Stale != 0 {
		t.Fatalf("first commit folded %d updates (%d stale), want the pre-join fold plus the joiner's",
			first.Participants, first.Stale)
	}
	if got := res.Matrix.Get(0, 0); got != 0.5 {
		t.Fatalf("matrix(0,0) = %v, want 0.5 — one report from each seat", got)
	}
	if srv.AliveClients() != 2 || len(res.DeadAfter) != 0 {
		t.Fatalf("final book: %d alive, DeadAfter %v, want 2 alive and none dead",
			srv.AliveClients(), res.DeadAfter)
	}
	if _, _, _, refused := srv.Rejections(); refused != 0 {
		t.Fatalf("%d refusals in a clean join", refused)
	}
	c0.Close()
	cJ.Close()
}

// TestChurnLeaveWithInFlightUpdate pins the clean-leave corner: a seat whose
// Leave lands while its last update sits folded in an open window. The fold
// stands (the commit still averages over it), the seat retires without any
// eviction noise, and the report matrix holds only the seats that stayed to
// report.
func TestChurnLeaveWithInFlightUpdate(t *testing.T) {
	logf, waitLog := watchLogs()
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1,
		Scheduler: SchedulerAsync, Async: AsyncConfig{CommitEvery: 2},
		Logf: logf,
	}, nil, []Transport{s0, s1})
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- res
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)
	// Seat 1's update and Leave ride the same link back to back: FIFO
	// guarantees the fold happens first, so the retirement provably strands
	// an in-flight contribution in the open window.
	sendUpdate(t, c1, 1, 0, 6)
	if err := c1.Send(&Leave{ClientID: 1}); err != nil {
		t.Fatal(err)
	}
	waitLog(t, "seat 1 retired at task 0 (clean leave)")
	c1.Close()

	sendUpdate(t, c0, 0, 0, 2)
	if g := recvGlobal(t, c0); g.Version != 1 || g.Params[0] != 4 {
		t.Fatalf("commit v%d %v, want v1 [4] — the retired seat's fold must stand", g.Version, g.Params)
	}
	if f := recvGlobal(t, c0); !f.TaskFinal {
		t.Fatalf("survivor's quota done, want the task-final broadcast, got %+v", f)
	}
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.9}})

	res := <-done
	if len(res.DeadAfter) != 0 {
		t.Fatalf("DeadAfter = %v, want empty — a clean leave is not a death", res.DeadAfter)
	}
	if _, _, evicted, refused := srv.Rejections(); evicted != 0 || refused != 0 {
		t.Fatalf("evicted=%d refused=%d, want a silent book for a clean leave", evicted, refused)
	}
	if srv.AliveClients() != 1 {
		t.Fatalf("%d alive seats, want the 1 that stayed", srv.AliveClients())
	}
	if got := res.Matrix.Get(0, 0); got != 0.9 {
		t.Fatalf("matrix(0,0) = %v, want 0.9 — only the staying seat reported", got)
	}
	c0.Close()
}

// TestChurnJoinCrashRejoinSameSeat drives the full seat life cycle through
// the harness: a seat that joins mid-run, crashes, and rejoins under its
// assigned identity must finish the run with clean books — one eviction, no
// residual death record, and every task reported exactly once.
func TestChurnJoinCrashRejoinSameSeat(t *testing.T) {
	rep, err := RunChurn(ChurnConfig{
		Tasks: 2, Rounds: 2, CommitEvery: 1,
		Scripts: []ChurnScript{
			{}, // founding anchor
			{Join: true, JoinAfterCommits: 1, Action: ChurnCrash, AtTask: 0, AfterUploads: 1, Rejoin: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("membership contract broken:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	if rep.Seats != 2 {
		t.Fatalf("seat book ended at %d seats, want the founder plus the joiner", rep.Seats)
	}
	if len(rep.Result.DeadAfter) != 0 {
		t.Fatalf("DeadAfter = %v, want empty after the rejoin", rep.Result.DeadAfter)
	}
	if len(rep.Result.PerTask) != 2 {
		t.Fatalf("run covered %d tasks, want 2", len(rep.Result.PerTask))
	}
}

// TestChurnScriptedSchedules replays deterministic churn schedules — every
// membership move the wire supports, alone and combined — and requires the
// harness's invariant audit to come back empty each time.
func TestChurnScriptedSchedules(t *testing.T) {
	cases := []struct {
		name    string
		scripts []ChurnScript
		seats   int
	}{
		{
			name: "clean leave mid-task",
			scripts: []ChurnScript{
				{}, {},
				{Action: ChurnLeave, AtTask: 0, AfterUploads: 1},
			},
			seats: 3,
		},
		{
			name: "crash without rejoin",
			scripts: []ChurnScript{
				{}, {},
				{Action: ChurnCrash, AtTask: 1},
			},
			seats: 3,
		},
		{
			name: "crash and rejoin",
			scripts: []ChurnScript{
				{}, {},
				{Action: ChurnCrash, AtTask: 0, AfterUploads: 1, Rejoin: true},
			},
			seats: 3,
		},
		{
			name: "leave then rejoin reclaims the seat",
			scripts: []ChurnScript{
				{},
				{Action: ChurnLeave, AtTask: 0, AfterUploads: 2, Rejoin: true},
			},
			seats: 2,
		},
		{
			name: "late join stays to the end",
			scripts: []ChurnScript{
				{}, {},
				{Join: true, JoinAfterCommits: 2},
			},
			seats: 3,
		},
		{
			name: "join then leave",
			scripts: []ChurnScript{
				{}, {},
				{Join: true, JoinAfterCommits: 1, Action: ChurnLeave, AtTask: 1, AfterUploads: 1},
			},
			seats: 3,
		},
		{
			name: "everything at once",
			scripts: []ChurnScript{
				{},
				{Action: ChurnLeave, AtTask: 0, AfterUploads: 1},
				{Action: ChurnCrash, AtTask: 0, AfterUploads: 2, Rejoin: true},
				{Join: true, JoinAfterCommits: 1},
				{Join: true, JoinAfterCommits: 2, Action: ChurnCrash, AtTask: 1},
			},
			seats: 5,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := RunChurn(ChurnConfig{
				Tasks: 2, Rounds: 2, CommitEvery: 1,
				Scripts: tc.scripts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				t.Fatalf("membership contract broken:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Seats != tc.seats {
				t.Fatalf("seat book ended at %d seats, want %d", rep.Seats, tc.seats)
			}
		})
	}
}

// shrinkChurn greedily simplifies a violating schedule so the failure report
// names a minimal reproducer: scripts are dropped, then membership moves
// neutralised to stayers, keeping each simplification only while the
// violations persist. Configs a simplification would malform (no founders,
// no anchor) simply fail to reproduce and are skipped.
func shrinkChurn(cfg ChurnConfig) ChurnConfig {
	reproduces := func(c ChurnConfig) bool {
		rep, err := RunChurn(c)
		return err == nil && len(rep.Violations) > 0
	}
	for changed := true; changed; {
		changed = false
		for i := range cfg.Scripts {
			trial := cfg
			trial.Scripts = append(append([]ChurnScript(nil), cfg.Scripts[:i]...), cfg.Scripts[i+1:]...)
			if reproduces(trial) {
				cfg, changed = trial, true
				break
			}
		}
		if changed {
			continue
		}
		for i, sc := range cfg.Scripts {
			if !sc.Join && sc.Action == ChurnStay {
				continue
			}
			trial := cfg
			trial.Scripts = append([]ChurnScript(nil), cfg.Scripts...)
			trial.Scripts[i] = ChurnScript{}
			if reproduces(trial) {
				cfg, changed = trial, true
				break
			}
		}
	}
	return cfg
}

// TestChurnPropertyRandomSchedules is the randomized face of the harness:
// seeded schedules of joins, leaves, crashes, and rejoins, each required to
// close with an empty audit. A failing seed reports its minimal shrunk
// schedule alongside the violations, and reproduces deterministically from
// the seed printed in the failure.
func TestChurnPropertyRandomSchedules(t *testing.T) {
	t.Parallel()
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	const tasks, rounds = 2, 2
	for _, seed := range seeds {
		scripts := RandomChurnScripts(seed, 3, 2, tasks, rounds)
		cfg := ChurnConfig{
			Tasks: tasks, Rounds: rounds, CommitEvery: 1, StalenessAlpha: 0.5,
			Scripts: scripts,
		}
		rep, err := RunChurn(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Violations) > 0 {
			min := shrinkChurn(cfg)
			t.Fatalf("seed %d broke the membership contract:\n  %s\nminimal schedule: %+v",
				seed, strings.Join(rep.Violations, "\n  "), min.Scripts)
		}
	}
}

// TestChurnRefusalsCounted pins the scheduler-side refusal paths: a join
// beyond -max-cohort, a rejoin claiming a seat that is still alive, and a
// rejoin for a seat that was never allocated are each refused with a
// distinct log line, counted in Server.Rejections, and end with the
// handshake link closed — while the run itself is untouched.
func TestChurnRefusalsCounted(t *testing.T) {
	logf, waitLog := watchLogs()
	admits := make(chan admission, 3)
	s0, c0 := LoopbackCap(64)
	s1, c1 := LoopbackCap(64)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, MaxCohort: 2,
		Scheduler: SchedulerAsync, Async: AsyncConfig{CommitEvery: 1},
		Logf: logf,
	}, nil, []Transport{s0, s1})
	srv.admits = admits
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- res
	}()

	recvRoundStart(t, c0)
	recvRoundStart(t, c1)

	expectClosed := func(tr Transport, what string) {
		t.Helper()
		if _, err := tr.Recv(); err == nil {
			t.Fatalf("%s: got a reply, want the link closed on refusal", what)
		}
		tr.Close()
	}
	sJ, cJ := LoopbackCap(4)
	admits <- admission{seat: joinSeat, link: sJ}
	waitLog(t, "refused join: cohort is at capacity (2 seats, -max-cohort 2)")
	expectClosed(cJ, "join beyond capacity")

	sA, cA := LoopbackCap(4)
	admits <- admission{seat: 0, link: sA}
	waitLog(t, "refused rejoin for client 0: seat is still alive")
	expectClosed(cA, "rejoin of a live seat")

	sB, cB := LoopbackCap(4)
	admits <- admission{seat: 99, link: sB}
	waitLog(t, "refused rejoin for unknown client 99")
	expectClosed(cB, "rejoin of an unallocated seat")

	sendUpdate(t, c0, 0, 0, 2)
	recvGlobal(t, c0)
	recvGlobal(t, c1)
	sendUpdate(t, c1, 1, 1, 6)
	recvGlobal(t, c0)
	recvGlobal(t, c1)
	recvGlobal(t, c0) // task-final
	recvGlobal(t, c1)
	c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}})
	c1.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.5}})

	res := <-done
	if _, _, _, refused := srv.Rejections(); refused != 3 {
		t.Fatalf("Rejections counted %d refusals, want all 3", refused)
	}
	if srv.AliveClients() != 2 || len(res.DeadAfter) != 0 {
		t.Fatalf("refusals disturbed the cohort: %d alive, DeadAfter %v",
			srv.AliveClients(), res.DeadAfter)
	}
	c0.Close()
	c1.Close()
}

// TestWireAcceptorRefusalCausesDistinct pins the operator-facing half of the
// refusal contract at the TCP acceptor: an unknown seat and a fingerprint
// mismatch must be refused with *different* log lines naming their causes,
// and both must land in the acceptor's refusal count — a debugging session
// should never have to guess which of the two went wrong.
func TestWireAcceptorRefusalCausesDistinct(t *testing.T) {
	const fp = 0xFEED5EA7
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	// The acceptor alone, without a run to consume what it delivers.
	s0, _ := LoopbackCap(1)
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 1, MaxCohort: 4, Scheduler: SchedulerAsync,
		Logf: func(f string, a ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(f, a...))
			mu.Unlock()
		},
	}, nil, []Transport{s0})
	if err := srv.Accept(ln, fp, WireOptions{}); err != nil {
		t.Fatal(err)
	}
	srv.acc.start()
	defer srv.acc.close()
	addr := ln.Addr().String()

	expectClosed := func(tr Transport, what string) {
		t.Helper()
		if _, err := tr.Recv(); err == nil {
			t.Fatalf("%s: got a reply, want the connection closed at the handshake", what)
		}
		tr.Close()
	}
	bad, err := DialRejoinWith(addr, 0, fp+1, 0, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expectClosed(bad, "fingerprint mismatch")
	oob, err := DialRejoinWith(addr, 7, fp, 0, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expectClosed(oob, "unknown seat")

	deadline := time.Now().Add(10 * time.Second)
	for srv.acc.refused.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("acceptor counted %d refusals, want 2", srv.acc.refused.Load())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	var fpLine, seatLine string
	for _, l := range lines {
		if !strings.HasPrefix(l, "fed: acceptor: refused ") {
			t.Fatalf("refusal line %q missing the acceptor prefix", l)
		}
		if strings.Contains(l, "fingerprint mismatch") {
			fpLine = l
		}
		if strings.Contains(l, "rejoin for unknown seat 7") {
			seatLine = l
		}
	}
	if fpLine == "" || seatLine == "" {
		t.Fatalf("refusal causes not distinguished; logged lines: %q", lines)
	}
	if !strings.Contains(fpLine, fmt.Sprintf("%#x", uint64(fp+1))) ||
		!strings.Contains(fpLine, fmt.Sprintf("%#x", uint64(fp))) {
		t.Fatalf("fingerprint refusal %q does not name both fingerprints", fpLine)
	}
}

// TestServerAcceptOwnsListener pins what Server.Accept hands the server: a
// handshake the acceptor refuses is logged through ServerConfig.Logf with its
// cause, and the listener is closed once Run returns — whether the run
// completed, was cancelled, or ended on a protocol error — so nothing can
// dial a finished server. A sync server refuses Accept.
func TestServerAcceptOwnsListener(t *testing.T) {
	const fp = 0xACCE9700
	for _, end := range []string{"completed", "cancelled", "protocol error"} {
		t.Run(end, func(t *testing.T) {
			logf, waitLog := watchLogs()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			s0, c0 := LoopbackCap(64)
			defer c0.Close()
			srv := NewServer(ServerConfig{
				Method: "test", NumTasks: 1, Rounds: 1,
				Scheduler: SchedulerAsync, Async: AsyncConfig{CommitEvery: 1},
				Logf: logf,
			}, nil, []Transport{s0})
			if err := srv.Accept(ln, fp, WireOptions{}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := srv.Run(ctx)
				done <- err
			}()
			recvRoundStart(t, c0)

			bad, err := DialRejoinWith(addr, 0, fp+1, 0, WireOptions{})
			if err != nil {
				t.Fatal(err)
			}
			waitLog(t, fmt.Sprintf("fed: acceptor: refused seat 0: fingerprint mismatch: client %#x, server %#x",
				uint64(fp+1), uint64(fp)))
			bad.Close()

			switch end {
			case "completed":
				sendUpdate(t, c0, 0, 0, 2)
				recvGlobal(t, c0)
				if !recvGlobal(t, c0).TaskFinal {
					t.Fatal("want the task-final global after the only upload")
				}
				c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}})
			case "cancelled":
				cancel()
			case "protocol error":
				c0.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.5}}) // an upload is owed
			}
			err = <-done
			switch {
			case end == "completed" && err != nil:
				t.Fatalf("run: %v", err)
			case end == "cancelled" && !errors.Is(err, context.Canceled):
				t.Fatalf("run returned %v, want its cancellation", err)
			case end == "protocol error" && (err == nil || errors.Is(err, context.Canceled)):
				t.Fatalf("run returned %v, want the protocol error", err)
			}
			if conn, err := net.Dial("tcp", addr); err == nil {
				conn.Close()
				t.Fatalf("dialled %s after Run returned: the server left its listener open", addr)
			}
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s0, _ := LoopbackCap(1)
	lockstep := NewServer(ServerConfig{Method: "test", NumTasks: 1, Rounds: 1}, nil, []Transport{s0})
	if err := lockstep.Accept(ln, fp, WireOptions{}); err == nil {
		t.Fatal("a sync server accepted a listener: lockstep cannot admit seats mid-run")
	}
}

// TestWireJoinEndToEnd drives the whole v5 membership negotiation over real
// TCP: a founding cohort of one comes up through ServeWith, the acceptor
// keeps the port open, and DialJoinWith enrolls a second process mid-task —
// seat assigned by the server, catch-up carrying the committed global — after
// which both seats finish the task and land in the books exactly once.
func TestWireJoinEndToEnd(t *testing.T) {
	const fp = 0x1E57F00D
	logf, waitLog := watchLogs()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	founderCh := make(chan Transport, 1)
	go func() {
		tr, err := DialWith(addr, 0, fp, WireOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		founderCh <- tr
	}()
	links, err := ServeWith(ln, 1, fp, WireOptions{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	srv := NewServer(ServerConfig{
		Method: "test", NumTasks: 1, Rounds: 2, MaxCohort: 2,
		Scheduler: SchedulerAsync, Async: AsyncConfig{CommitEvery: 1},
		Logf: logf,
	}, nil, links)
	if err := srv.Accept(ln, fp, WireOptions{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- res
	}()
	founder := <-founderCh

	recvRoundStart(t, founder)
	sendUpdate(t, founder, 0, 0, 2)
	if g := recvGlobal(t, founder); g.Version != 1 || g.Params[0] != 2 {
		t.Fatalf("founding commit v%d %v, want v1 [2]", g.Version, g.Params)
	}

	joiner, seat, cu, err := DialJoinWith(addr, fp, WireOptions{})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if seat != 1 {
		t.Fatalf("assigned seat %d, want the next free seat 1", seat)
	}
	if cu.TaskIdx != 0 || cu.Seen != 0 || cu.TaskFinal || cu.TaskDone {
		t.Fatalf("join catch-up %+v, want task 0, seen 0, no flags", cu)
	}
	if cu.Version != 1 || len(cu.Params) != 1 || cu.Params[0] != 2 {
		t.Fatalf("join catch-up v%d %v, want the committed v1 [2]", cu.Version, cu.Params)
	}
	waitLog(t, "admitted join as seat 1 at task 0")

	sendUpdate(t, joiner, 1, 1, 6)
	recvGlobal(t, founder)
	if g := recvGlobal(t, joiner); g.Version != 2 || g.Params[0] != 6 {
		t.Fatalf("joiner's first commit v%d %v, want v2 [6]", g.Version, g.Params)
	}
	sendUpdate(t, founder, 0, 2, 10)
	recvGlobal(t, founder)
	recvGlobal(t, joiner)
	sendUpdate(t, joiner, 1, 3, 14)
	recvGlobal(t, founder)
	recvGlobal(t, joiner)
	fF, fJ := recvGlobal(t, founder), recvGlobal(t, joiner)
	if !fF.TaskFinal || !fJ.TaskFinal {
		t.Fatalf("task-final flags %v/%v after both quotas", fF.TaskFinal, fJ.TaskFinal)
	}
	founder.Send(&RoundEnd{ClientID: 0, EvalAccs: []float64{0.25}})
	joiner.Send(&RoundEnd{ClientID: 1, EvalAccs: []float64{0.75}})

	res := <-done
	if got := res.Matrix.Get(0, 0); got != 0.5 {
		t.Fatalf("matrix(0,0) = %v, want 0.5 — both seats reported exactly once", got)
	}
	if srv.AliveClients() != 2 || len(res.DeadAfter) != 0 {
		t.Fatalf("final book: %d alive, DeadAfter %v, want the elastic cohort of 2 intact",
			srv.AliveClients(), res.DeadAfter)
	}
	if n := srv.acc.refused.Load(); n != 0 {
		t.Fatalf("%d acceptor refusals during a clean join", n)
	}
	founder.Close()
	joiner.Close()
}

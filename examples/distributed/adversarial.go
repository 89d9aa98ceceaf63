package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fed"
	"repro/internal/tensor"
)

// The adversarial leg: the same wire protocol, but one of the four peers is
// hostile. Six scripted attacks a real deployment would face:
//
//   - sign-flip and scaled poisoning: well-formed updates with adversarial
//     values, run naive-vs-robust — the naive weighted mean is dragged far
//     from the truth, the robust server (-aggregator median) holds the
//     honest noise floor.
//   - NaN/Inf garbage: non-finite parameters and weights. The naive server
//     folds them and commits a NaN global; the hardened server
//     (-reject-nonfinite) rejects every one at ingest and commits only the
//     honest aggregate.
//   - stale replays: updates pinned to global version 0, re-sent long after
//     the run passed the staleness bound. Each replay is rejected and
//     counted, but still advances the attacker's upload quota, so the task
//     closes without its seat being lost.
//   - oversized frames: a 4 MB frame against a server whose decoder is
//     capped (-max-frame 64KB). The length prefix is refused before any
//     allocation and the link evicted; the cohort finishes without it.
//   - slow-loris: a peer that uploads everything but never reports, holding
//     its connection open and silent. The wire timeout turns the silence
//     into an eviction and the run completes.
//
// Every scenario asserts both halves: the attack defeats the undefended
// configuration (where one exists) and the defended configuration survives
// it with the attack visible in the server's rejection counters.

const (
	advClients = 4   // three honest peers + one attacker
	advVictim  = 3   // the attacker's client ID
	advDim     = 256 // parameter-vector length
	advRounds  = 2   // uploads per client per task
)

// advTruth is the scenario's ground truth; honest peers send it plus small
// per-client noise.
func advTruth() []float64 {
	rng := tensor.NewRNG(4242)
	truth := make([]float64, advDim)
	for i := range truth {
		truth[i] = rng.Norm()
	}
	return truth
}

// honestParams derives one honest client's update deterministically.
func honestParams(truth []float64, id, round int) []float32 {
	rng := tensor.NewRNG(uint64(1000 + id*100 + round))
	params := make([]float32, len(truth))
	for i := range params {
		params[i] = float32(truth[i] + 0.05*rng.Norm())
	}
	return params
}

// advDeviation is the RMS distance between a committed global and the ground
// truth — the honest cohort's own aggregate sits within ~0.05 of it.
func advDeviation(global []float32, truth []float64) float64 {
	var sum float64
	for i := range global {
		d := float64(global[i]) - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(global)))
}

func allFinite32(xs []float32) bool {
	for _, x := range xs {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}

func runAdversarial() {
	fmt.Println("\n=== adversarial matrix (scripted hostile peer over TCP) ===")
	truth := advTruth()

	for _, atk := range []struct {
		name  string
		mount func(i int) float32
	}{
		{"sign-flip", func(i int) float32 { return float32(-10 * truth[i]) }},
		{"scaled-poison", func(i int) float32 { return float32(1000 * truth[i]) }},
	} {
		poison := make([]float32, advDim)
		for i := range poison {
			poison[i] = atk.mount(i)
		}
		payload := func(int) []float32 { return poison }
		naive, _ := runScriptedSync(atk.name+"/naive", truth, fed.Config{}, payload)
		robust, _ := runScriptedSync(atk.name+"/robust", truth,
			fed.Config{Robust: "median", RejectNonFinite: true}, payload)
		nd, rd := advDeviation(naive, truth), advDeviation(robust, truth)
		fmt.Printf("  %-14s naive deviation %8.3f, robust (median) %8.3f\n", atk.name+":", nd, rd)
		if nd < 1 {
			fail(fmt.Errorf("%s: naive deviation %.3f — the attack is too weak to prove anything", atk.name, nd))
		}
		if rd > 0.25 {
			fail(fmt.Errorf("%s: robust deviation %.3f, want the honest noise floor", atk.name, rd))
		}
	}

	runGarbageScenario(truth)
	runStaleReplayScenario(truth)
	runOversizedFrameScenario(truth)
	runSlowLorisScenario(truth)
	fmt.Println("adversarial matrix passed: every attack defeated the undefended path and none survived the defended one")
}

// syncScriptedPeer follows the lockstep protocol with scripted parameter
// vectors: RoundStart → Update → GlobalModel per round, RoundEnd at the end.
// The returned slice is a copy of the last broadcast global.
func syncScriptedPeer(addr string, id int, fp uint64, params func(round int) []float32) []float32 {
	tr, err := fed.DialWith(addr, id, fp, fed.WireOptions{})
	if err != nil {
		fail(fmt.Errorf("adversarial: client %d dial: %w", id, err))
	}
	var last []float32
	for r := 0; r < advRounds; r++ {
		if _, err := tr.Recv(); err != nil { // RoundStart
			fail(fmt.Errorf("adversarial: client %d round start: %w", id, err))
		}
		if err := tr.Send(&fed.Update{ClientID: id, Participating: true, Weight: 1,
			Params: params(r)}); err != nil {
			fail(fmt.Errorf("adversarial: client %d upload: %w", id, err))
		}
		msg, err := tr.Recv()
		if err != nil {
			fail(fmt.Errorf("adversarial: client %d broadcast: %w", id, err))
		}
		gm, ok := msg.(*fed.GlobalModel)
		if !ok {
			fail(fmt.Errorf("adversarial: client %d got %T, want *GlobalModel", id, msg))
		}
		last = append(last[:0], gm.Params...)
	}
	tr.Send(&fed.RoundEnd{ClientID: id, EvalAccs: []float64{0.5}})
	return last
}

// runScriptedSync runs one lockstep federation — honest scripted peers plus
// the attacker payload — and returns the final committed global (as client 0
// received it) and the server, for reading its counters.
func runScriptedSync(name string, truth []float64, knobs fed.Config, attacker func(r int) []float32) ([]float32, *fed.Server) {
	cfg := fed.Config{Method: "adversarial", Rounds: advRounds, Seed: 7, Bandwidth: 1 << 20,
		Robust: knobs.Robust, RejectNonFinite: knobs.RejectNonFinite}
	fp := cfg.Fingerprint("adversarial", name, fmt.Sprint(advClients), "1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	var final []float32
	for id := 0; id < advClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			params := func(r int) []float32 { return honestParams(truth, id, r) }
			if id == advVictim {
				params = attacker
			}
			got := syncScriptedPeer(addr, id, fp, params)
			if id == 0 {
				final = got
			}
		}(id)
	}
	links, err := fed.ServeWith(ln, advClients, fp, fed.WireOptions{})
	ln.Close()
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(cfg.ServerConfigFor(advClients, 1), nil, links)
	if _, err := srv.Run(context.Background()); err != nil {
		fail(fmt.Errorf("adversarial %s: %w", name, err))
	}
	wg.Wait()
	return final, srv
}

// runGarbageScenario sends NaN parameters (and an Inf in the second round).
// Undefended, the fold commits a NaN global; with -reject-nonfinite every
// garbage upload is rejected at ingest, counted, and the global stays the
// honest aggregate.
func runGarbageScenario(truth []float64) {
	garbage := func(r int) []float32 {
		params := make([]float32, advDim)
		for i := range params {
			params[i] = float32(math.NaN())
		}
		if r%2 == 1 {
			params[0] = float32(math.Inf(1))
		}
		return params
	}
	naiveGlobal, _ := runScriptedSync("garbage/naive", truth, fed.Config{}, garbage)
	if allFinite32(naiveGlobal) {
		fail(fmt.Errorf("garbage: the undefended server produced a finite global — the attack demonstration is broken"))
	}
	robustGlobal, srv := runScriptedSync("garbage/robust", truth,
		fed.Config{Robust: "median", RejectNonFinite: true}, garbage)
	if !allFinite32(robustGlobal) {
		fail(fmt.Errorf("garbage: a non-finite value leaked through ingest hardening"))
	}
	if dev := advDeviation(robustGlobal, truth); dev > 0.25 {
		fail(fmt.Errorf("garbage: hardened global deviates %.3f from the truth", dev))
	}
	nonFinite, _, _, _ := srv.Rejections()
	if nonFinite != advRounds {
		fail(fmt.Errorf("garbage: %d non-finite rejections recorded, want %d", nonFinite, advRounds))
	}
	fmt.Printf("  %-14s naive global went NaN, hardened server rejected %d garbage uploads\n", "garbage:", nonFinite)
}

// asyncScriptedPeer follows the asynchronous protocol: a receive pump tracks
// the latest committed version, each upload is based on it, and the peer
// waits for its own commit before the next send (so honest staleness stays
// within the bound). baseVersion chooses the claimed base from the live
// version counter — honest peers report it, the replay attacker spins until
// the run is past the staleness bound and then claims version 0. When report
// is false the peer is a slow loris: it never reports and holds the socket
// open until the server hangs up. reportDelay staggers honest reports so
// their links are provably non-idle until after the loris is evicted.
func asyncScriptedPeer(tr fed.Transport, id int, params func(round int) []float32,
	baseVersion func(ver *atomic.Uint64) uint64, report bool, reportDelay time.Duration) {
	if _, err := tr.Recv(); err != nil { // RoundStart
		fail(fmt.Errorf("adversarial: client %d round start: %w", id, err))
	}
	var ver atomic.Uint64
	taskFinal := make(chan struct{}, 1)
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for {
			msg, err := tr.Recv()
			if err != nil {
				return
			}
			if gm, ok := msg.(*fed.GlobalModel); ok {
				ver.Store(gm.Version)
				if gm.TaskFinal {
					taskFinal <- struct{}{}
					return
				}
			}
		}
	}()
	for r := 0; r < advRounds; r++ {
		before := ver.Load()
		if err := tr.Send(&fed.Update{ClientID: id, Participating: true, Weight: 1,
			BaseVersion: baseVersion(&ver), Params: params(r)}); err != nil {
			return // an evicted attacker's link dies mid-script; the server asserts the rest
		}
		// Wait for this upload's own commit so the next base is fresh; an
		// upload the server rejects commits nothing, so give up quickly.
		for i := 0; i < 100 && ver.Load() <= before; i++ {
			time.Sleep(2 * time.Millisecond)
		}
	}
	select {
	case <-taskFinal:
	case <-pumpDone:
		// The pump also closes this after delivering the final broadcast, so
		// check the channel before concluding the link died (an evicted peer).
		select {
		case <-taskFinal:
		default:
			return
		}
	case <-time.After(30 * time.Second):
		fail(fmt.Errorf("adversarial: client %d never saw the task-final broadcast", id))
	}
	if !report {
		// Slow-loris: stay silent on the open socket until the server's
		// timeout eviction closes it under us.
		<-pumpDone
		for {
			if _, err := tr.Recv(); err != nil {
				return
			}
		}
	}
	time.Sleep(reportDelay)
	tr.Send(&fed.RoundEnd{ClientID: id, EvalAccs: []float64{0.5}})
}

// runStaleReplayScenario: the attacker replays uploads pinned to global
// version 0 after the run has moved past the staleness bound. Each replay
// must be rejected and counted while still advancing the attacker's upload
// quota, so the task closes with the attacker's seat retained.
func runStaleReplayScenario(truth []float64) {
	const maxStale = 3
	cfg := fed.Config{Method: "adversarial", Rounds: advRounds, Seed: 7, Bandwidth: 1 << 20,
		Scheduler: fed.SchedulerAsync,
		Async:     fed.AsyncConfig{CommitEvery: 1, MaxStaleness: maxStale, StalenessAlpha: 0.5},
		Robust:    "median", RejectNonFinite: true}
	fp := cfg.Fingerprint("adversarial", "stale-replay", fmt.Sprint(advClients), "1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for id := 0; id < advClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr, err := fed.DialWith(addr, id, fp, fed.WireOptions{})
			if err != nil {
				fail(fmt.Errorf("adversarial: client %d dial: %w", id, err))
			}
			base := func(ver *atomic.Uint64) uint64 { return ver.Load() }
			if id == advVictim {
				base = func(ver *atomic.Uint64) uint64 {
					// Replay from version 0, but only once the cohort is past
					// the staleness bound — a replay the bound can't catch
					// would just be a fresh update.
					for ver.Load() <= maxStale {
						time.Sleep(2 * time.Millisecond)
					}
					return 0
				}
			}
			asyncScriptedPeer(tr, id, func(r int) []float32 { return honestParams(truth, id, r) },
				base, true, 0)
		}(id)
	}
	links, err := fed.ServeWith(ln, advClients, fp, fed.WireOptions{})
	ln.Close()
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(cfg.ServerConfigFor(advClients, 1), nil, links)
	res, err := srv.Run(context.Background())
	if err != nil {
		fail(fmt.Errorf("adversarial stale-replay: %w", err))
	}
	wg.Wait()
	_, stale, evicted, _ := srv.Rejections()
	if stale != advRounds {
		fail(fmt.Errorf("stale-replay: %d replays rejected, want %d", stale, advRounds))
	}
	if evicted != 0 || len(res.DeadAfter) != 0 {
		fail(fmt.Errorf("stale-replay: evictions %d / DeadAfter %v — replays must cost the update, not the seat", evicted, res.DeadAfter))
	}
	fmt.Printf("  %-14s %d stale replays rejected, attacker's seat retained, task closed\n", "stale-replay:", stale)
}

// runOversizedFrameScenario: the attacker ships a ~4 MB frame at a server
// whose decoder is capped at 64 KB. The length prefix is refused before any
// allocation and the link is evicted; the honest cohort finishes the run.
func runOversizedFrameScenario(truth []float64) {
	cfg := fed.Config{Method: "adversarial", Rounds: advRounds, Seed: 7, Bandwidth: 1 << 20,
		Scheduler: fed.SchedulerAsync,
		Async:     fed.AsyncConfig{CommitEvery: 1},
		Robust:    "median", RejectNonFinite: true}
	fp := cfg.Fingerprint("adversarial", "oversized-frame", fmt.Sprint(advClients), "1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	huge := make([]float32, 1<<20) // 4 MB dense payload vs a 64 KB frame cap
	for i := range huge {
		huge[i] = 1
	}
	var wg sync.WaitGroup
	for id := 0; id < advClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr, err := fed.DialWith(addr, id, fp, fed.WireOptions{})
			if err != nil {
				fail(fmt.Errorf("adversarial: client %d dial: %w", id, err))
			}
			if id == advVictim {
				if _, err := tr.Recv(); err != nil { // RoundStart
					return
				}
				// The frame bomb. The server cuts the link at the length
				// prefix, so the send and everything after may fail freely.
				tr.Send(&fed.Update{ClientID: id, Participating: true, Weight: 1, Params: huge})
				tr.Recv()
				return
			}
			asyncScriptedPeer(tr, id, func(r int) []float32 { return honestParams(truth, id, r) },
				func(ver *atomic.Uint64) uint64 { return ver.Load() }, true, 0)
		}(id)
	}
	links, err := fed.ServeWith(ln, advClients, fp, fed.WireOptions{MaxFrame: 1 << 16})
	ln.Close()
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(cfg.ServerConfigFor(advClients, 1), nil, links)
	res, err := srv.Run(context.Background())
	if err != nil {
		fail(fmt.Errorf("adversarial oversized-frame: the run must survive the frame bomb: %w", err))
	}
	wg.Wait()
	if _, ok := res.DeadAfter[advVictim]; !ok {
		fail(fmt.Errorf("oversized-frame: attacker not evicted (DeadAfter %v)", res.DeadAfter))
	}
	if _, _, evicted, _ := srv.Rejections(); evicted < 1 {
		fail(fmt.Errorf("oversized-frame: eviction not counted"))
	}
	if len(res.PerTask) != 1 {
		fail(fmt.Errorf("oversized-frame: run finished %d tasks, want 1", len(res.PerTask)))
	}
	fmt.Printf("  %-14s 4 MB frame refused at the 64 KB cap, link evicted, cohort finished\n", "oversized:")
}

// runSlowLorisScenario: the attacker uploads everything but never reports,
// holding its connection open and silent. The wire timeout turns the silence
// into an eviction and the run completes. Honest peers hold their reports
// back a third of the timeout, so the attacker's idle deadline — armed at
// its last upload — fires first, and the run is over before any honest
// link's deadline could.
func runSlowLorisScenario(truth []float64) {
	const timeout = 1500 * time.Millisecond
	cfg := fed.Config{Method: "adversarial", Rounds: advRounds, Seed: 7, Bandwidth: 1 << 20,
		Scheduler: fed.SchedulerAsync,
		Async:     fed.AsyncConfig{CommitEvery: 1},
		Robust:    "median", RejectNonFinite: true}
	fp := cfg.Fingerprint("adversarial", "slow-loris", fmt.Sprint(advClients), "1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for id := 0; id < advClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr, err := fed.DialWith(addr, id, fp, fed.WireOptions{})
			if err != nil {
				fail(fmt.Errorf("adversarial: client %d dial: %w", id, err))
			}
			asyncScriptedPeer(tr, id, func(r int) []float32 { return honestParams(truth, id, r) },
				func(ver *atomic.Uint64) uint64 { return ver.Load() }, id != advVictim, timeout/3)
		}(id)
	}
	links, err := fed.ServeWith(ln, advClients, fp, fed.WireOptions{Timeout: timeout})
	ln.Close()
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(cfg.ServerConfigFor(advClients, 1), nil, links)
	res, err := srv.Run(context.Background())
	if err != nil {
		fail(fmt.Errorf("adversarial slow-loris: the run must survive a silent held-open peer: %w", err))
	}
	wg.Wait()
	if _, ok := res.DeadAfter[advVictim]; !ok {
		fail(fmt.Errorf("slow-loris: silent attacker not evicted (DeadAfter %v)", res.DeadAfter))
	}
	if len(res.PerTask) != 1 {
		fail(fmt.Errorf("slow-loris: run finished %d tasks, want 1", len(res.PerTask)))
	}
	fmt.Printf("  %-14s silent peer evicted by the %s wire timeout, run completed\n", "slow-loris:", timeout)
}

// Distributed walkthrough: the same FedKNOW federation run four times —
// in-process over the loopback transport, over real localhost TCP with the
// wire transport (one goroutine per client endpoint, exactly the code a
// separate client process would run), over TCP again with opt-in fp16
// compression, and then two chaos legs: the asynchronous scheduler with one
// client's TCP connection killed mid-task, which rejoins through the
// catch-up handshake and finishes the run with no seat lost; and a
// server-kill leg, where the server itself dies mid-task and a replacement
// is rebuilt from its newest durable snapshot on the same address — the
// whole cohort redials through the rejoin path and the run completes with
// every task reported exactly once. The first three legs end with a
// field-by-field comparison showing the lossless wire run is bit-identical
// to loopback and a bytes-on-the-wire comparison showing what the
// compressed run saves; the chaos legs assert the run completes with the
// cohort restored.
//
// This is the protocol seam in action: the server never sees data, models or
// strategies, only typed round messages (RoundStart → Update → GlobalModel →
// RoundEnd), so the simulator is just one binding of a real protocol.
//
// An elastic-churn leg exercises v5 membership end to end: the server starts
// with a partial cohort (-min-cohort style), a seatless client enrolls
// mid-run through the join handshake and is assigned the open seat, the
// server is then killed and restored from a snapshot carrying the *grown*
// seat book, a founder retires its seat with a clean Leave after its first
// task, and another founder's connection is killed and healed through the
// rejoin path — all while tasks progress, with the run asserted to complete
// every task and the final seat book matching the scripted churn exactly.
//
// A final adversarial leg turns one peer hostile: scripted Byzantine attacks
// (sign-flip and scaled poisoning, NaN/Inf garbage, stale replays, oversized
// frames, slow-loris silence) run naive-vs-defended, asserting each attack
// defeats the undefended server and is absorbed — and counted — by the
// robust aggregation rules, ingest hardening, frame cap and wire timeout.
//
// Run with -short for a CI-sized configuration, -leg rejoin to run only the
// kill-and-rejoin chaos leg, -leg crash to run only the server-kill
// crash-restart leg, -leg churn to run only the elastic-membership leg, and
// -leg adversarial to run only the hostile-peer matrix (CI runs the chaos,
// churn and adversarial legs under the race detector).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/tensor"
)

func main() {
	short := flag.Bool("short", false, "shrink the run for CI")
	leg := flag.String("leg", "all", "all, rejoin (kill-and-rejoin only), crash (server-kill restart only), churn (elastic join/leave only), or adversarial (hostile-peer matrix only)")
	flag.Parse()
	if *leg != "all" && *leg != "rejoin" && *leg != "crash" && *leg != "churn" && *leg != "adversarial" {
		fail(fmt.Errorf("unknown -leg %q (all, rejoin, crash, churn, adversarial)", *leg))
	}
	if *leg == "adversarial" {
		runAdversarial()
		return
	}

	// 1. Shared job definition. Every process of a wire run derives this
	// independently from the same knobs — that is all the coordination the
	// protocol needs.
	const seed = 42
	numClients, numTasks, rounds := 3, 4, 3
	if *short {
		numTasks, rounds = 2, 2
	}
	ds, tasks := data.CIFAR100.Build(data.CI, seed)
	tasks = tasks[:numTasks]
	seqs := data.Federate(tasks, numClients, data.CIAlloc(seed+1))
	cluster := device.Jetson20()
	cfg := fed.Config{
		Method: "FedKNOW", Rounds: rounds, LocalIters: 3, BatchSize: 8,
		LR: 0.02, LRDecay: 1e-4, NumClasses: ds.NumClasses,
		Bandwidth: 1024 * 1024, Seed: seed, DropoutProb: 0.2,
	}
	build := func(rng *tensor.RNG) *model.Model {
		return model.MustBuild("SixCNN", ds.NumClasses, ds.C, ds.H, ds.W, 1, rng)
	}
	factory := core.Factory(core.Options{Rho: 0.10, K: 3, FinetuneIters: 1, SelectEvery: 3})
	// The handshake digest covers Config plus the job knobs Config can't see.
	fingerprint := cfg.Fingerprint("CIFAR100", "SixCNN",
		fmt.Sprint(numClients), fmt.Sprint(numTasks))

	if *leg == "rejoin" {
		runKillRejoin(cfg, numClients, numTasks, cluster, seqs, build, factory)
		return
	}
	if *leg == "crash" {
		runCrashRestart(cfg, numClients, numTasks, cluster, seqs, build, factory)
		return
	}
	if *leg == "churn" {
		runElasticChurn(cfg, numClients, numTasks, cluster, seqs, build, factory)
		return
	}

	// 2. Reference: the in-process loopback engine.
	fmt.Println("=== loopback run (in-process) ===")
	engine := fed.NewEngine(cfg, cluster, seqs, build, factory)
	engine.SetObserver(fed.ObserverFuncs{Task: printTask})
	loop := engine.Run()

	// 3. The same federation over localhost TCP. The server schedules
	// rounds and aggregates; each client endpoint dials in, identifies
	// itself, and follows the round lifecycle.
	fmt.Println("\n=== wire run (server + clients over TCP) ===")
	wire, lossless := runWire(cfg, numClients, numTasks, cluster, seqs, build, factory,
		fingerprint, fed.WireOptions{}, true)

	// 4. The acceptance bar: both transports produce the identical Result.
	fmt.Println("\n=== comparison ===")
	mismatches := 0
	for i := range loop.PerTask {
		if loop.PerTask[i] != wire.PerTask[i] {
			fmt.Printf("task %d differs:\n  loopback %+v\n  wire     %+v\n",
				i+1, loop.PerTask[i], wire.PerTask[i])
			mismatches++
		}
	}
	for i := 0; i < numTasks; i++ {
		for j := 0; j <= i; j++ {
			if loop.Matrix.Get(i, j) != wire.Matrix.Get(i, j) {
				fmt.Printf("accuracy matrix [%d][%d] differs\n", i, j)
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		fail(fmt.Errorf("%d mismatches between loopback and wire", mismatches))
	}
	fmt.Println("loopback and wire runs are identical, bit for bit")

	// 5. Opt-in compression: the identical job with fp16 values on the wire.
	// Lossy encodings change results (slightly), so they are negotiated in
	// the handshake — both sides must opt in — and folded into the job
	// fingerprint here. What they buy is bytes: the measured traffic below
	// is about half of the lossless run's.
	fmt.Println("\n=== wire run with -compress fp16 ===")
	f16opts := fed.WireOptions{Compression: fed.Compression{Quant: fed.QuantF16}}
	f16print := cfg.Fingerprint("CIFAR100", "SixCNN",
		fmt.Sprint(numClients), fmt.Sprint(numTasks), f16opts.Compression.Quant.String())
	wireF16, compressed := runWire(cfg, numClients, numTasks, cluster, seqs, build, factory,
		f16print, f16opts, false)
	for i := range wireF16.PerTask {
		fmt.Printf("task %d: avg-acc %.4f (lossless %.4f)\n", i+1,
			wireF16.PerTask[i].AvgAccuracy, wire.PerTask[i].AvgAccuracy)
	}
	fmt.Printf("measured wire traffic: lossless %.2f MB, fp16 %.2f MB (%.2fx smaller)\n",
		float64(lossless)/(1<<20), float64(compressed)/(1<<20),
		float64(lossless)/float64(compressed))

	// 6. Chaos: kill a client's connection mid-task and watch it rejoin.
	runKillRejoin(cfg, numClients, numTasks, cluster, seqs, build, factory)

	// 7. Chaos, harder: kill the server itself mid-task and restart it from
	// its newest durable snapshot.
	runCrashRestart(cfg, numClients, numTasks, cluster, seqs, build, factory)

	// 8. Elastic: a partial cohort grows by a mid-run join, survives a
	// server crash with the grown seat book, shrinks by a clean leave, and
	// heals a killed connection — all in one run.
	runElasticChurn(cfg, numClients, numTasks, cluster, seqs, build, factory)

	// 9. Hostile: the adversarial matrix — one scripted Byzantine peer per
	// scenario against the server's robust-aggregation and ingest defences.
	runAdversarial()
}

// runKillRejoin is the churn leg: the same job under the asynchronous
// scheduler, with the last client connected through a kill-switch proxy.
// After the first global commit the proxy severs that client's connection —
// the server evicts the seat but keeps its state, the client's RunReconnect
// loop redials with a rejoin hello (ID, job fingerprint, last-seen global
// version), and the server re-admits it with a Catchup: the current task,
// how many of its uploads already landed, and the current versioned global.
// The run must complete every task with the cohort fully restored.
func runKillRejoin(cfg fed.Config, numClients, numTasks int, cluster *device.Cluster,
	seqs [][]data.ClientTask, build func(*tensor.RNG) *model.Model, factory fed.Factory) {
	fmt.Println("\n=== wire run with kill-and-rejoin (async scheduler) ===")
	acfg := cfg
	acfg.DropoutProb = 0 // async models churn as eviction, not round dropout
	acfg.Scheduler = fed.SchedulerAsync
	acfg.Async = fed.AsyncConfig{CommitEvery: 1, StalenessAlpha: 0.5}
	aprint := acfg.Fingerprint("CIFAR100", "SixCNN",
		fmt.Sprint(numClients), fmt.Sprint(numTasks))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	proxy, err := newKillProxy(ln.Addr().String())
	if err != nil {
		fail(err)
	}
	defer proxy.Close()
	victim := numClients - 1
	fmt.Printf("server on %s; client %d routed through kill proxy %s\n",
		ln.Addr(), victim, proxy.addr())

	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := fed.NewWireClient(acfg, id, numClients, cluster.Devices[id%cluster.Size()],
				seqs[id], build, factory)
			if id == victim {
				err := c.RunReconnect(context.Background(), fed.Reconnect{
					Addr: proxy.addr(), Fingerprint: aprint, Attempts: 60,
					BaseDelay: 20 * time.Millisecond, MaxDelay: 500 * time.Millisecond,
				})
				if err != nil {
					fail(fmt.Errorf("reconnecting client %d: %w", id, err))
				}
				return
			}
			t, err := fed.DialWith(ln.Addr().String(), id, aprint, fed.WireOptions{})
			if err != nil {
				fail(fmt.Errorf("client %d dial: %w", id, err))
			}
			if err := c.Run(context.Background(), t); err != nil {
				fail(fmt.Errorf("client %d: %w", id, err))
			}
		}(id)
	}

	links, err := fed.ServeWith(ln, numClients, aprint, fed.WireOptions{})
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(acfg.ServerConfigFor(numClients, numTasks), nil, links)
	if err := srv.Accept(ln, aprint, fed.WireOptions{}); err != nil {
		fail(err)
	}
	var kill sync.Once
	srv.SetObserver(fed.ObserverFuncs{
		Round: func(s fed.RoundStats) {
			if s.Participants > 0 {
				kill.Do(func() {
					fmt.Printf("  >> killing client %d's connection after commit v%d\n", victim, s.Version)
					proxy.Kill()
				})
			}
		},
		Task: printTask,
	})
	res, err := srv.Run(context.Background())
	if err != nil {
		fail(fmt.Errorf("server must survive the kill: %w", err))
	}
	wg.Wait()

	// The churn acceptance bar: every task finished, the cohort restored,
	// the rejoined client's per-task reports in the books.
	if len(res.PerTask) != numTasks {
		fail(fmt.Errorf("run finished %d of %d tasks after the kill", len(res.PerTask), numTasks))
	}
	if alive := srv.AliveClients(); alive != numClients {
		fail(fmt.Errorf("%d of %d clients alive: the killed client did not rejoin", alive, numClients))
	}
	if len(res.DeadAfter) != 0 {
		fail(fmt.Errorf("DeadAfter = %v, want empty after rejoin", res.DeadAfter))
	}
	for i, tp := range res.PerTask {
		if tp.AvgAccuracy <= 0 {
			fail(fmt.Errorf("task %d has no recorded accuracy", i+1))
		}
	}
	sent, recv := srv.WireTraffic()
	fmt.Printf("client %d was killed mid-task, rejoined, and the run completed all %d tasks\n",
		victim, numTasks)
	fmt.Printf("measured wire traffic incl. the retired link: %.2f MB sent, %.2f MB received\n",
		float64(sent)/(1<<20), float64(recv)/(1<<20))
}

// runCrashRestart is the server-kill leg: the same asynchronous job, with
// durable snapshots on (-snapshot-dir in the CLI; a checkpoint.Store here).
// At the first commit of the second task the server "crashes" — its run is
// cancelled and its listener closed, exactly what kill -9 leaves behind — and
// a replacement process is simulated: reopen the store, load the newest
// snapshot, rebuild the server from it on the same address, and accept
// rejoins. Every client runs under RunReconnect, so the whole cohort redials
// with the catch-up handshake and retrains at most the uploads the crash cut
// had not yet seen. The bar: the run completes, every task is reported
// exactly once across the process boundary, and no seat is lost.
func runCrashRestart(cfg fed.Config, numClients, numTasks int, cluster *device.Cluster,
	seqs [][]data.ClientTask, build func(*tensor.RNG) *model.Model, factory fed.Factory) {
	fmt.Println("\n=== wire run with server kill and snapshot restart (async scheduler) ===")
	acfg := cfg
	acfg.DropoutProb = 0
	acfg.Scheduler = fed.SchedulerAsync
	acfg.Async = fed.AsyncConfig{CommitEvery: 1, StalenessAlpha: 0.5}
	aprint := acfg.Fingerprint("CIFAR100", "SixCNN",
		fmt.Sprint(numClients), fmt.Sprint(numTasks))

	dir, err := os.MkdirTemp("", "fedknow-snap-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.OpenStore(dir, 2, aprint)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	fmt.Printf("server on %s, snapshots in %s\n", addr, dir)

	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := fed.NewWireClient(acfg, id, numClients, cluster.Devices[id%cluster.Size()],
				seqs[id], build, factory)
			err := c.RunReconnect(context.Background(), fed.Reconnect{
				Addr: addr, Fingerprint: aprint, Attempts: 400,
				BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
			})
			if err != nil {
				fail(fmt.Errorf("reconnecting client %d: %w", id, err))
			}
		}(id)
	}

	// Incarnation one: snapshots on, killed at the first commit of task 2.
	links, err := fed.ServeWith(ln, numClients, aprint, fed.WireOptions{})
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(acfg.ServerConfigFor(numClients, numTasks), nil, links)
	if err := srv.Accept(ln, aprint, fed.WireOptions{}); err != nil {
		fail(err)
	}
	srv.SetSnapshots(store)
	crashCtx, crash := context.WithCancel(context.Background())
	var kill sync.Once
	srv.SetObserver(fed.ObserverFuncs{
		Round: func(s fed.RoundStats) {
			if s.TaskIdx >= 1 && s.Participants > 0 {
				kill.Do(func() {
					fmt.Printf("  >> killing the server after commit v%d of task %d\n", s.Version, s.TaskIdx+1)
					crash()
				})
			}
		},
		Task: printTask,
	})
	if _, err := srv.Run(crashCtx); err == nil {
		fail(fmt.Errorf("killed run completed instead of returning its cancellation"))
	}

	// Incarnation two: rebind the same address the clients are redialing,
	// reopen the store like a fresh process, restore, and accept rejoins.
	var ln2 net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("rebinding %s: %w", addr, err))
		}
	}
	store2, err := checkpoint.OpenStore(dir, 2, aprint)
	if err != nil {
		fail(err)
	}
	snap, err := store2.Load()
	if err != nil {
		fail(fmt.Errorf("loading the crash cut: %w", err))
	}
	if snap == nil {
		fail(fmt.Errorf("no snapshot on disk after the kill"))
	}
	fmt.Printf("  >> restored snapshot %d: resuming at task %d/%d, global version %d\n",
		snap.Seq, snap.TaskIdx+1, numTasks, snap.Version)
	srv2, err := fed.NewServerFromSnapshot(acfg.ServerConfigFor(numClients, numTasks), nil, snap)
	if err != nil {
		fail(fmt.Errorf("restore: %w", err))
	}
	if err := srv2.Accept(ln2, aprint, fed.WireOptions{}); err != nil {
		fail(err)
	}
	srv2.SetSnapshots(store2)
	srv2.SetObserver(fed.ObserverFuncs{Task: printTask})
	res, err := srv2.Run(context.Background())
	if err != nil {
		fail(fmt.Errorf("restored server must complete the run: %w", err))
	}
	wg.Wait()

	// The crash acceptance bar: all tasks exactly once, cohort restored,
	// books intact across the process boundary.
	if len(res.PerTask) != numTasks {
		fail(fmt.Errorf("run finished %d of %d tasks across the restart", len(res.PerTask), numTasks))
	}
	for i, tp := range res.PerTask {
		if tp.TaskIdx != i {
			fail(fmt.Errorf("task point %d reports task %d: duplicated or skipped across the restart", i, tp.TaskIdx))
		}
		if tp.AvgAccuracy <= 0 {
			fail(fmt.Errorf("task %d has no recorded accuracy", i+1))
		}
	}
	if alive := srv2.AliveClients(); alive != numClients {
		fail(fmt.Errorf("%d of %d clients alive: the cohort did not rejoin the restarted server", alive, numClients))
	}
	if len(res.DeadAfter) != 0 {
		fail(fmt.Errorf("DeadAfter = %v, want empty after the restart", res.DeadAfter))
	}
	sent, recv := srv2.WireTraffic()
	fmt.Printf("server was killed mid-task, restarted from its snapshot, and the run completed all %d tasks\n", numTasks)
	fmt.Printf("measured wire traffic incl. the pre-crash carry: %.2f MB sent, %.2f MB received\n",
		float64(sent)/(1<<20), float64(recv)/(1<<20))
}

// killProxy is a minimal TCP proxy with a kill switch: Kill severs every
// active connection pair (the stand-in for a network partition or crashed
// NAT) while the listener keeps accepting, so the victim can reconnect
// through it. Hold freezes the proxy for a while: the bytes of every pair,
// either way and on pairs opened meanwhile, wait in the proxy.
type killProxy struct {
	ln       net.Listener
	upstream string
	mu       sync.Mutex
	conns    []net.Conn
	closed   bool
	held     <-chan struct{} // the Hold in force; nil or closed: none
	done     chan struct{}   // closed by Close
}

func newKillProxy(upstream string) (*killProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &killProxy{ln: ln, upstream: upstream, done: make(chan struct{})}
	go p.loop()
	return p, nil
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
		go pipe(up, heldReader{p, down})
		go pipe(down, heldReader{p, up})
	}
}

// heldReader is one side of a proxied pair: a chunk it reads is forwarded
// only once no Hold is in force.
type heldReader struct {
	p *killProxy
	net.Conn
}

func (h heldReader) Read(b []byte) (int, error) {
	n, err := h.Conn.Read(b)
	h.p.mu.Lock()
	held := h.p.held
	h.p.mu.Unlock()
	if held != nil {
		select {
		case <-held:
		case <-h.p.done:
		}
	}
	return n, err
}

// Hold freezes the proxy until until is closed.
func (p *killProxy) Hold(until <-chan struct{}) {
	p.mu.Lock()
	p.held = until
	p.mu.Unlock()
}

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
	close(p.done)
	p.ln.Close()
	p.Kill()
}

// runWire executes one TCP federation and returns the result plus the
// measured bytes on the wire (both directions, summed over the server's
// links).
func runWire(cfg fed.Config, numClients, numTasks int, cluster *device.Cluster,
	seqs [][]data.ClientTask, build func(*tensor.RNG) *model.Model, factory fed.Factory,
	fingerprint uint64, opts fed.WireOptions, verbose bool) (*fed.Result, int64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	fmt.Printf("server listening on %s\n", addr)

	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t, err := fed.DialWith(addr, id, fingerprint, opts)
			if err != nil {
				fail(fmt.Errorf("client %d dial: %w", id, err))
			}
			c := fed.NewWireClient(cfg, id, numClients, cluster.Devices[id%cluster.Size()],
				seqs[id], build, factory)
			if err := c.Run(context.Background(), t); err != nil {
				fail(fmt.Errorf("client %d: %w", id, err))
			}
		}(id)
	}
	links, err := fed.ServeWith(ln, numClients, fingerprint, opts)
	ln.Close()
	if err != nil {
		fail(err)
	}
	srv := fed.NewServer(cfg.ServerConfigFor(numClients, numTasks), nil, links)
	obs := fed.ObserverFuncs{Task: printTask}
	if verbose {
		obs.Round = func(s fed.RoundStats) {
			fmt.Printf("  round %d.%d: %d participants, %.1f KB up\n",
				s.TaskIdx+1, s.Round+1, s.Participants, float64(s.UpBytes)/1024)
		}
	}
	srv.SetObserver(obs)
	res, err := srv.Run(context.Background())
	if err != nil {
		fail(err)
	}
	wg.Wait()
	var total int64
	for _, l := range links {
		if w, ok := l.(*fed.WireTransport); ok {
			total += w.BytesSent() + w.BytesRecv()
		}
	}
	return res, total
}

func printTask(tp fed.TaskPoint) {
	fmt.Printf("task %d: avg-acc %.4f, forgetting %.4f, sim-hours %.4f\n",
		tp.TaskIdx+1, tp.AvgAccuracy, tp.ForgettingRate, tp.SimHours)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

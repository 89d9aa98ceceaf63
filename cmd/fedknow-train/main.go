// Command fedknow-train runs one federated continual-learning job with
// explicit knobs and prints the per-task accuracy, forgetting rate, time and
// communication accounting, streaming each row as the task finishes.
//
// By default the whole federation runs in-process over the loopback
// transport. With -listen / -connect the same job runs over TCP: one server
// process schedules rounds and aggregates, one process per client trains —
// and the result is bit-identical to the loopback run of the same seed.
//
// Usage:
//
//	fedknow-train -dataset CIFAR100 -method FedKNOW -clients 4 -rounds 2
//	fedknow-train -dataset MiniImageNet -method GEM -arch ResNet18
//	fedknow-train -dataset CIFAR100 -dropout 0.2 -bandwidth 51200
//	fedknow-train -dataset MiniImageNet -cpuprofile cpu.prof -memprofile mem.prof
//
//	# distributed: server plus one process per client
//	fedknow-train -dataset CIFAR100 -clients 2 -listen :7070 &
//	fedknow-train -dataset CIFAR100 -clients 2 -connect localhost:7070 -client-id 0 &
//	fedknow-train -dataset CIFAR100 -clients 2 -connect localhost:7070 -client-id 1
//
// Wire runs ship parameters with the lossless sparse codec by default (bit-
// identical to loopback). -compress fp16|int8 opts into lossy quantisation
// (2×/4× fewer bytes; all processes must agree), and -wire-timeout bounds
// each message so a hung peer errors instead of wedging the round.
//
// -scheduler async switches the round policy to staleness-bounded buffered
// asynchrony (see docs/ARCHITECTURE.md and README "Choosing a scheduler"):
// clients train continuously against the latest committed global, the
// server commits every -async-commit-k accepted updates, deweights stale
// updates by 1/(1+staleness)^alpha, rejects those beyond -max-staleness,
// and a dropped connection evicts that client instead of aborting the run.
//
// Churn is survivable end to end under async: the server keeps accepting
// rejoin handshakes for evicted seats, and a client run with -reconnect N
// redials a dropped connection (capped exponential backoff, up to N
// consecutive attempts), presents its ID, job fingerprint and last-seen
// global version, and resumes the task from the server's catch-up reply
// without losing local training state. Under -scheduler sync a dropped
// connection aborts the run by default (reproducibility); -sync-evict opts
// into evicting the lost client and finishing with the survivors.
//
// The server itself is crash-only with -snapshot-dir: every commit and task
// boundary is atomically snapshotted (versioned global plus the full seat
// book), and a restarted server process finding a snapshot resumes the run
// at the recorded task and version, re-admitting the -reconnect cohort
// through the same rejoin path — clients retrain at most the uploads since
// the last commit. -snapshot-keep bounds how many previous snapshots are
// retained as torn-write fallbacks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/profiling"
	"repro/internal/tensor"
)

// job is everything derived from the flags that both wire roles and the
// loopback run share; deriving it identically in every process is what makes
// a distributed run reproduce the in-process one.
type job struct {
	cfg       fed.Config
	wire      fed.WireOptions
	reconnect int    // client role: max consecutive rejoin attempts (0 = off)
	snapDir   string // server role: durable snapshot directory ("" = off)
	snapKeep  int    // server role: previous snapshots kept besides the newest
	minCohort int    // server role: fresh connections awaited before the run starts
	maxCohort int    // server role: seat-book cap for mid-run joins
	fam       data.Family
	scale     data.Scale
	arch      string
	width     int
	clients   int
	tasks     int
	ds        *data.Dataset
	seqs      [][]data.ClientTask
	cluster   *device.Cluster
	build     func(*tensor.RNG) *model.Model
	factory   fed.Factory
}

func main() {
	dataset := flag.String("dataset", "CIFAR100", "CIFAR100, FC100, CORe50, MiniImageNet, TinyImageNet, SVHN")
	method := flag.String("method", "FedKNOW", "FedKNOW or a baseline (GEM, BCN, Co2L, EWC, MAS, AGS-CL, FedAvg, APFL, FedRep, FLCN, FedWEIT)")
	arch := flag.String("arch", "", "model architecture (default: the paper's choice for the dataset)")
	scale := flag.String("scale", "ci", "ci or full")
	clients := flag.Int("clients", 0, "override client count")
	rounds := flag.Int("rounds", 0, "override aggregation rounds per task")
	iters := flag.Int("iters", 0, "override local iterations per round")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "concurrent clients (0 = GOMAXPROCS)")
	kernelThreads := flag.Int("kernel-threads", 0, "extra tensor-kernel workers shared across clients (0 = GOMAXPROCS); training clients also run kernels inline; results are identical for every setting")
	dropout := flag.Float64("dropout", 0, "per-round probability that a client drops offline (failure injection; 0 disables)")
	bandwidth := flag.Float64("bandwidth", 0, "per-client link bandwidth in bytes/second (0 = the paper's 1 MB/s default)")
	listen := flag.String("listen", "", "run as a wire-transport server on this TCP address (e.g. :7070) and wait for -clients connections")
	connect := flag.String("connect", "", "run as one wire-transport client of the server at this address")
	clientID := flag.Int("client-id", 0, "this client's ID when using -connect (0 ≤ id < clients)")
	compress := flag.String("compress", "none", "wire value encoding: none (lossless, bit-exact), fp16 or int8 (lossy, 2x/4x fewer bytes); every process of one run must agree")
	wireTimeout := flag.Duration("wire-timeout", 0, "per-message wire deadline (e.g. 2m): a hung peer errors instead of wedging the round; 0 disables; without -reconnect it must exceed the longest a healthy peer stays silent (async: the slowest client's whole task), with -reconnect a timeout eviction is recoverable so honest per-message bounds work")
	scheduler := flag.String("scheduler", "sync", "round-scheduling policy: sync (lockstep, bit-reproducible) or async (staleness-bounded buffered commits; stragglers no longer stall rounds); every process of one run must agree")
	asyncCommitK := flag.Int("async-commit-k", 0, "async scheduler: commit the global model every K accepted updates (0 = half the cohort)")
	maxStaleness := flag.Int("max-staleness", 0, "async scheduler: reject updates staler than this many global versions (0 = unbounded)")
	stalenessAlpha := flag.Float64("staleness-alpha", 0.5, "async scheduler: alpha in the staleness weight 1/(1+staleness)^alpha (0 disables deweighting)")
	shards := flag.Int("shards", 0, "partition the server's aggregation fold across this many concurrent per-shard reducers (bitwise-identical results for every value; buys server ingest throughput on multi-core hosts; 0 or 1 = single-loop default)")
	aggregator := flag.String("aggregator", "fedavg", "server aggregation rule: fedavg (weighted mean, the default), trimmed-mean[:beta], median, krum[:f], or fedopt[:momentum[:inner]] (server momentum over an inner rule); the robust rules bound what poisoned updates can do to the global; every process of one run must agree")
	rejectNonFinite := flag.Bool("reject-nonfinite", false, "server ingest hardening: drop and count updates carrying NaN/Inf parameters or a non-finite weight instead of folding them into the global (defaults on when -aggregator selects a robust rule; every process of one run must agree)")
	maxFrame := flag.Int("max-frame", 0, "cap the wire decoder's frame payload in bytes, bounding the allocation a malicious length prefix can force (0 = the 256 MB package default; size it to the dense model payload plus slack)")
	reconnect := flag.Int("reconnect", 0, "client role: rejoin a dropped connection with a catch-up handshake, retrying up to N consecutive times under capped exponential backoff (requires -scheduler async; 0 disables)")
	syncEvict := flag.Bool("sync-evict", false, "sync scheduler: evict a client whose connection drops and keep the cohort going instead of aborting the run (relaxes lockstep reproducibility; every process of one run must agree)")
	snapshotDir := flag.String("snapshot-dir", "", "server role: durably snapshot the versioned global and the full seat book to this directory at every commit and task boundary; a restarted server finding a snapshot here resumes the run, re-admitting -reconnect clients through the rejoin path (requires -listen; restart recovery requires -scheduler async)")
	snapshotKeep := flag.Int("snapshot-keep", 1, "previous snapshots retained besides the newest (negative keeps all)")
	minCohort := flag.Int("min-cohort", 0, "server role, elastic membership: start the run once this many fresh clients have connected instead of all -clients; the rest may enroll mid-run with -join (requires -listen and -scheduler async; 0 = -clients, the fixed-cohort default)")
	maxCohort := flag.Int("max-cohort", 0, "server role, elastic membership: cap the seat book — mid-run -join enrollments beyond it are refused and counted (0 = -clients; at most -clients, the data-shard space)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	join := flag.Bool("join", false, "client role, elastic membership: enroll into the running federation without a preassigned seat — the server assigns the seat ID and replies with a catch-up (requires -connect and -scheduler async; excludes -client-id)")
	flag.Parse()
	tensor.SetKernelThreads(*kernelThreads)

	if *listen != "" && *connect != "" {
		fmt.Fprintln(os.Stderr, "-listen and -connect are mutually exclusive")
		os.Exit(2)
	}
	if *scheduler != fed.SchedulerSync && *scheduler != fed.SchedulerAsync {
		fmt.Fprintf(os.Stderr, "unknown -scheduler %q (sync, async)\n", *scheduler)
		os.Exit(2)
	}
	if *scheduler == fed.SchedulerAsync && *dropout > 0 {
		fmt.Fprintln(os.Stderr, "-scheduler async does not support -dropout (async churn is modelled as eviction on connection loss)")
		os.Exit(2)
	}
	if *reconnect > 0 && *scheduler != fed.SchedulerAsync {
		fmt.Fprintln(os.Stderr, "-reconnect requires -scheduler async (lockstep has no rejoin splice point; see -sync-evict for sync-mode drop tolerance)")
		os.Exit(2)
	}
	if *syncEvict && *scheduler != fed.SchedulerSync {
		fmt.Fprintln(os.Stderr, "-sync-evict only applies to -scheduler sync (async always evicts and supports rejoin)")
		os.Exit(2)
	}
	if *snapshotDir != "" && *listen == "" {
		fmt.Fprintln(os.Stderr, "-snapshot-dir requires -listen (snapshots capture the wire server's seat book; loopback runs have no rejoin path to restore through)")
		os.Exit(2)
	}
	if (*minCohort != 0 || *maxCohort != 0) && *listen == "" {
		fmt.Fprintln(os.Stderr, "-min-cohort/-max-cohort require -listen (elastic membership is a wire-server feature)")
		os.Exit(2)
	}
	if (*minCohort != 0 || *maxCohort != 0) && *scheduler != fed.SchedulerAsync {
		fmt.Fprintln(os.Stderr, "-min-cohort/-max-cohort require -scheduler async (a lockstep cohort is fixed at round start)")
		os.Exit(2)
	}
	if *join {
		if *connect == "" {
			fmt.Fprintln(os.Stderr, "-join requires -connect (it is a client-role flag)")
			os.Exit(2)
		}
		if *scheduler != fed.SchedulerAsync {
			fmt.Fprintln(os.Stderr, "-join requires -scheduler async (only the async scheduler admits mid-run seats)")
			os.Exit(2)
		}
		clientIDSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "client-id" {
				clientIDSet = true
			}
		})
		if clientIDSet {
			fmt.Fprintln(os.Stderr, "-join excludes -client-id (the server assigns the seat; use -connect with -client-id for a fresh-cohort seat)")
			os.Exit(2)
		}
	}
	quant, ok := fed.QuantByName(*compress)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -compress mode %q (none, fp16, int8)\n", *compress)
		os.Exit(2)
	}
	if _, err := fed.ParseAggregator(*aggregator, *shards); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *maxFrame < 0 {
		fmt.Fprintln(os.Stderr, "-max-frame must be non-negative")
		os.Exit(2)
	}
	// Ingest hardening defaults on for robust rules: a robust aggregation
	// that folds NaN is still poisoned. An explicit -reject-nonfinite=false
	// wins over the default.
	robustSelected := *aggregator != "" && *aggregator != "fedavg"
	rejectSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "reject-nonfinite" {
			rejectSet = true
		}
	})
	if robustSelected && !rejectSet {
		*rejectNonFinite = true
	}

	fam, ok := data.FamilyByName(*dataset)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	sc := data.CI
	if *scale == "full" {
		sc = data.Full
	}
	ds, tasks := fam.Build(sc, *seed)
	rt := experiments.RuntimeFor(fam, sc)
	if *clients > 0 {
		rt.Clients = *clients
	}
	if *rounds > 0 {
		rt.Rounds = *rounds
	}
	if *iters > 0 {
		rt.LocalIters = *iters
	}
	if *bandwidth > 0 {
		rt.Bandwidth = *bandwidth
	}
	architecture := *arch
	if architecture == "" {
		if fam.Name == "MiniImageNet" || fam.Name == "TinyImageNet" {
			architecture = "ResNet18"
		} else {
			architecture = "SixCNN"
		}
	}
	alloc := data.DefaultAlloc(*seed + 1)
	if sc == data.CI {
		alloc = data.CIAlloc(*seed + 1)
	}
	seqs := data.Federate(tasks, rt.Clients, alloc)

	j := &job{
		cfg: fed.Config{
			Method: *method, Rounds: rt.Rounds, LocalIters: rt.LocalIters,
			BatchSize: rt.BatchSize, LR: rt.LR, LRDecay: rt.LRDecay,
			NumClasses: ds.NumClasses, Bandwidth: rt.Bandwidth, Seed: *seed,
			Parallelism: *parallel, DropoutProb: *dropout,
			Scheduler: *scheduler, SyncEvict: *syncEvict,
			Async: fed.AsyncConfig{CommitEvery: *asyncCommitK,
				MaxStaleness: *maxStaleness, StalenessAlpha: *stalenessAlpha},
			Shards: *shards,
			Robust: *aggregator, RejectNonFinite: *rejectNonFinite,
		},
		wire: fed.WireOptions{
			Compression: fed.Compression{Quant: quant},
			Timeout:     *wireTimeout,
			MaxFrame:    *maxFrame,
		},
		reconnect: *reconnect,
		snapDir:   *snapshotDir,
		snapKeep:  *snapshotKeep,
		minCohort: *minCohort,
		maxCohort: *maxCohort,
		fam:       fam, scale: sc, arch: architecture, width: rt.Width,
		clients: rt.Clients, tasks: len(tasks), ds: ds, seqs: seqs,
		cluster: device.Jetson20(),
		build: func(rng *tensor.RNG) *model.Model {
			return model.MustBuild(architecture, ds.NumClasses, ds.C, ds.H, ds.W, rt.Width, rng)
		},
		factory: experiments.MethodFactory(*method, sc),
	}
	// Resolve the elastic-cohort knobs against the seat space. -clients is
	// the data-shard (and so seat-ID) space; the initial cohort may be
	// smaller, the cap may not exceed it.
	if j.minCohort == 0 {
		j.minCohort = j.clients
	}
	if j.maxCohort == 0 {
		j.maxCohort = j.clients
	}
	if j.minCohort < 1 || j.minCohort > j.clients {
		fmt.Fprintf(os.Stderr, "-min-cohort %d out of range [1,%d] (-clients bounds the seat space)\n", j.minCohort, j.clients)
		os.Exit(2)
	}
	if j.maxCohort < j.minCohort || j.maxCohort > j.clients {
		fmt.Fprintf(os.Stderr, "-max-cohort %d out of range [%d,%d] (at least -min-cohort, at most -clients)\n", j.maxCohort, j.minCohort, j.clients)
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case *listen != "":
		err = runServe(j, *listen)
	case *connect != "":
		err = runConnect(j, *connect, *clientID, *join)
	default:
		runLoopback(j)
	}
	// The profiles are written however the run ended.
	if err = errors.Join(err, stopProfiles()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// fingerprint digests the full job — Config plus the knobs Config cannot
// see (dataset, architecture, client count, task count, width, scale, and
// the lossy -compress mode, which changes results) — so the wire handshake
// rejects any flag mismatch between processes.
func (j *job) fingerprint() uint64 {
	return j.cfg.Fingerprint(j.fam.Name, j.arch, j.scale.String(),
		fmt.Sprint(j.clients), fmt.Sprint(j.tasks), fmt.Sprint(j.width),
		j.wire.Compression.Quant.String())
}

// banner prints the run header shared by the loopback and server roles.
func banner(j *job, transport string) {
	sched := j.cfg.Scheduler
	if sched == "" {
		sched = fed.SchedulerSync
	}
	fmt.Printf("%s on %s (%s, %d clients, %d tasks, %s scale, %s transport, %s scheduler)\n",
		j.cfg.Method, j.fam.Name, j.arch, j.clients, j.tasks, j.scale, transport, sched)
	fmt.Printf("%-6s %-10s %-10s %-10s %-12s %-12s\n",
		"task", "avg-acc", "forget", "sim-hours", "up-bytes", "down-bytes")
}

// streamRows returns an observer that prints each task's row the moment the
// server finishes it.
func streamRows() fed.RoundObserver {
	return fed.ObserverFuncs{Task: func(tp fed.TaskPoint) {
		fmt.Printf("%-6d %-10.4f %-10.4f %-10.4f %-12d %-12d\n",
			tp.TaskIdx+1, tp.AvgAccuracy, tp.ForgettingRate, tp.SimHours, tp.UpBytes, tp.DownBytes)
	}}
}

// runLoopback runs the whole federation in-process.
func runLoopback(j *job) {
	engine := fed.NewEngine(j.cfg, j.cluster, j.seqs, j.build, j.factory)
	engine.SetObserver(streamRows())
	banner(j, "loopback")
	engine.Run()
}

// runServe is the server role of a distributed run: accept one TCP
// connection per client, schedule the rounds, aggregate, stream results.
// Under the async scheduler the listener stays open for the whole run,
// accepting catch-up rejoins from clients whose connections dropped. With
// -snapshot-dir the server is crash-only: every commit and task boundary is
// durably snapshotted (the store is opened — and its directory probed for
// writability — before any client connects, so a misconfiguration fails
// fast), and a restart that finds a snapshot resumes from it instead of
// starting fresh.
func runServe(j *job, addr string) error {
	var store *checkpoint.Store
	if j.snapDir != "" {
		var err error
		store, err = checkpoint.OpenStore(j.snapDir, j.snapKeep, j.fingerprint())
		if err != nil {
			return err
		}
		snap, err := store.Load()
		if err != nil {
			return err
		}
		if snap != nil {
			return runRestore(j, addr, store, snap)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on %s, waiting for %d clients...\n", ln.Addr(), j.minCohort)
	var links []fed.Transport
	var acceptor *fed.RejoinAcceptor
	if j.cfg.Scheduler == fed.SchedulerAsync {
		// The fresh cohort is -min-cohort seats; the acceptor keeps the
		// listener open for the rest of the run, bounding rejoin seat IDs by
		// -max-cohort so a mid-run joiner that later drops can come back.
		links, err = fed.ServeWith(ln, j.minCohort, j.fingerprint(), j.wire)
		if err == nil {
			acceptor = fed.AcceptRejoins(ln, j.maxCohort, j.fingerprint(), j.wire)
			defer acceptor.Close()
		}
	} else {
		links, err = fed.ServeWith(ln, j.clients, j.fingerprint(), j.wire)
		ln.Close()
	}
	if err != nil {
		return err
	}
	// A sync run always resolves -min-cohort/-max-cohort to -clients, so the
	// fixed-cohort configuration is unchanged by the elastic knobs.
	scfg := j.cfg.ServerConfigFor(j.minCohort, j.tasks)
	scfg.MaxCohort = j.maxCohort
	srv := fed.NewServer(scfg, nil, links)
	if acceptor != nil {
		acceptor.SetLogf(log.Printf)
		srv.SetRejoins(acceptor.Rejoins())
		srv.SetJoins(acceptor.Joins())
	}
	if store != nil {
		srv.SetSnapshots(store)
	}
	srv.SetObserver(streamRows())
	banner(j, "wire")
	_, err = srv.Run(context.Background())
	if err == nil {
		// WireTraffic also counts connections retired by a rejoin, so the
		// summary never loses the bytes a dropped link already carried.
		sent, recv := srv.WireTraffic()
		fmt.Printf("measured wire traffic (%s): %.2f MB sent, %.2f MB received\n",
			j.wire.Compression.Quant, float64(sent)/(1<<20), float64(recv)/(1<<20))
	}
	return err
}

// runRestore is the crash-recovery server role: rebuild the books from the
// newest durable snapshot, reopen the listener for rejoin hellos only (the
// cohort already exists — every client holds local training state and
// re-admits itself), and resume the run at the snapshotted task and global
// version. Clients running -reconnect just redial; each loses at most the
// uploads since the last commit, which it retrains because the restored
// Seen counts are authoritative.
func runRestore(j *job, addr string, store *checkpoint.Store, snap *checkpoint.ServerSnapshot) error {
	if j.cfg.Scheduler != fed.SchedulerAsync {
		return fmt.Errorf("snapshot found in %s, but restart recovery requires -scheduler async (lockstep has no rejoin path to re-admit the cohort through)", store.Dir())
	}
	scfg := j.cfg.ServerConfigFor(j.minCohort, j.tasks)
	scfg.MaxCohort = j.maxCohort
	srv, err := fed.NewServerFromSnapshot(scfg, nil, snap)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	acceptor := fed.AcceptRejoins(ln, j.maxCohort, j.fingerprint(), j.wire)
	defer acceptor.Close()
	acceptor.SetLogf(log.Printf)
	srv.SetRejoins(acceptor.Rejoins())
	srv.SetJoins(acceptor.Joins())
	srv.SetSnapshots(store)
	srv.SetObserver(streamRows())
	if snap.TaskIdx >= j.tasks {
		// The final boundary cut: the crashed process had already finished
		// every task, so there is nothing to resume — reprint the summary.
		fmt.Printf("restored snapshot %d from %s: the run already completed all %d tasks at global version %d\n",
			snap.Seq, store.Dir(), j.tasks, snap.Version)
	} else {
		fmt.Printf("restored snapshot %d from %s: resuming at task %d/%d, global version %d; waiting for rejoins on %s\n",
			snap.Seq, store.Dir(), snap.TaskIdx+1, j.tasks, snap.Version, ln.Addr())
	}
	banner(j, "wire")
	_, err = srv.Run(context.Background())
	if err == nil {
		sent, recv := srv.WireTraffic()
		fmt.Printf("measured wire traffic (%s): %.2f MB sent, %.2f MB received\n",
			j.wire.Compression.Quant, float64(sent)/(1<<20), float64(recv)/(1<<20))
	}
	return err
}

// runConnect is the client role of a distributed run: rebuild this client's
// shard and model deterministically from the shared flags, dial the server,
// and follow the round lifecycle until the server closes the link. With
// -reconnect a dropped connection is rejoined with the catch-up handshake
// instead of ending the process. With -join the client enrolls mid-run: the
// server assigns the seat ID, the client rebuilds that seat's shard and
// model, resumes from the catch-up, and heals later drops through the
// ordinary rejoin path.
func runConnect(j *job, addr string, id int, join bool) error {
	if join {
		return runJoin(j, addr)
	}
	if id < 0 || id >= j.clients {
		return fmt.Errorf("client id %d out of range [0,%d)", id, j.clients)
	}
	c := fed.NewWireClient(j.cfg, id, j.clients, j.cluster.Devices[id%j.cluster.Size()],
		j.seqs[id], j.build, j.factory)
	if j.reconnect > 0 {
		fmt.Printf("client %d joining %s with rejoin-on-drop, up to %d attempts (%s on %s)\n",
			id, addr, j.reconnect, j.cfg.Method, j.fam.Name)
		if err := c.RunReconnect(context.Background(), fed.Reconnect{
			Addr: addr, Fingerprint: j.fingerprint(), Wire: j.wire, Attempts: j.reconnect,
		}); err != nil {
			return err
		}
		fmt.Printf("client %d done\n", id)
		return nil
	}
	t, err := fed.DialWith(addr, id, j.fingerprint(), j.wire)
	if err != nil {
		return err
	}
	fmt.Printf("client %d joined %s (%s on %s)\n", id, addr, j.cfg.Method, j.fam.Name)
	if err := c.Run(context.Background(), t); err != nil {
		return err
	}
	fmt.Printf("client %d done\n", id)
	return nil
}

// runJoin enrolls a seatless client mid-run: the join handshake returns the
// server-assigned seat, from which the client deterministically rebuilds that
// seat's data shard and model (exactly as a fresh-cohort process with that
// -client-id would have), then resumes the async lifecycle from the server's
// catch-up. A later drop rejoins the assigned seat like any -reconnect
// client.
func runJoin(j *job, addr string) error {
	t, seat, cu, err := fed.DialJoinWith(addr, j.fingerprint(), j.wire)
	if err != nil {
		return err
	}
	if seat < 0 || seat >= j.clients {
		t.Close()
		return fmt.Errorf("server assigned seat %d outside this job's seat space [0,%d)", seat, j.clients)
	}
	c := fed.NewWireClient(j.cfg, seat, j.clients, j.cluster.Devices[seat%j.cluster.Size()],
		j.seqs[seat], j.build, j.factory)
	fmt.Printf("client enrolled mid-run as seat %d on %s (catch-up: task %d, v%d)\n",
		seat, addr, cu.TaskIdx+1, cu.Version)
	if err := c.ResumeReconnect(context.Background(), fed.Reconnect{
		Addr: addr, Fingerprint: j.fingerprint(), Wire: j.wire, Attempts: j.reconnect,
	}, t, cu); err != nil {
		return err
	}
	fmt.Printf("client %d done\n", seat)
	return nil
}

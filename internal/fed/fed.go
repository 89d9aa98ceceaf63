// Package fed implements the federated continual-learning protocol of
// §III-A as three explicit roles joined by a message transport:
//
//   - Server (server.go): the round scheduler. It opens rounds, collects
//     parameter updates, delegates combination to a pluggable Aggregator
//     (SparseFedAvg is §III-A's rule), broadcasts the global model, and
//     keeps the books — the simulated clock through the device model,
//     communication volume, the per-task accuracy matrix, and OOM evictions.
//   - Client (client.go): one endpoint. It wraps a Strategy (FedKNOW or a
//     baseline), owns the local model and data, trains for v iterations per
//     round, and reports device accounting with each upload.
//   - Transport (transport.go, wire.go): the seam between them, carrying the
//     typed round messages RoundStart → Update → GlobalModel → RoundEnd
//     (message.go). LoopbackTransport runs everything in-process with
//     zero-copy message passing; WireTransport speaks a length-prefixed
//     binary codec (codec.go) over net.Conn so a run can span processes —
//     both produce bitwise-identical results for the same seed.
//
// Engine is the thin constructor that wires clients to a server over
// loopback transports, preserving the original monolithic engine's Config
// and construction order (and therefore its exact RNG streams and results).
// Progress streams through RoundObserver; runs cancel via context.Context.
package fed

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// ClientCtx is everything a strategy can see inside one client.
type ClientCtx struct {
	ID         int
	NumClients int
	Model      *model.Model
	Opt        *opt.SGD
	RNG        *tensor.RNG
	NumClasses int
}

// Strategy is one training method (FedKNOW or a baseline) running inside a
// client. The client calls the hooks in protocol order; BaseStrategy
// provides no-op defaults so methods implement only what they need.
type Strategy interface {
	// Name identifies the method in reports.
	Name() string
	// TrainStep performs one local iteration on the batch (forward,
	// backward, possibly gradient surgery, optimizer step) and returns the
	// task loss.
	TrainStep(x *tensor.Tensor, labels []int, classes []int) float64
	// AfterAggregate runs after the server's global model has been
	// installed; preAgg is the client's flat parameter vector from before
	// aggregation. FedKNOW fine-tunes here (§III-A), APFL mixes models.
	AfterAggregate(preAgg []float32, ct data.ClientTask)
	// TaskEnd runs after a task's final round (knowledge extraction,
	// memory updates, importance estimation).
	TaskEnd(ct data.ClientTask)
	// AggregateMask selects which parameters the client installs from the
	// global model; nil means all (FedRep masks its head layers out).
	AggregateMask() []bool
	// ExtraUploadBytes / ExtraDownloadBytes report per-round communication
	// beyond the dense model payload (FedWEIT's adaptive-weight pool).
	ExtraUploadBytes() int
	ExtraDownloadBytes() int
	// MemoryBytes is the method's retained state (samples, knowledge,
	// importance matrices), charged against device memory.
	MemoryBytes() int
	// OverheadFLOPs is extra per-iteration compute beyond the plain
	// forward+backward (restored gradients, QP solves, penalty terms),
	// charged against device speed.
	OverheadFLOPs() float64
}

// BaseStrategy provides default no-op hook implementations.
type BaseStrategy struct{}

// AfterAggregate does nothing.
func (BaseStrategy) AfterAggregate([]float32, data.ClientTask) {}

// TaskEnd does nothing.
func (BaseStrategy) TaskEnd(data.ClientTask) {}

// AggregateMask aggregates everything.
func (BaseStrategy) AggregateMask() []bool { return nil }

// ExtraUploadBytes is zero.
func (BaseStrategy) ExtraUploadBytes() int { return 0 }

// ExtraDownloadBytes is zero.
func (BaseStrategy) ExtraDownloadBytes() int { return 0 }

// MemoryBytes is zero.
func (BaseStrategy) MemoryBytes() int { return 0 }

// OverheadFLOPs is zero.
func (BaseStrategy) OverheadFLOPs() float64 { return 0 }

// Factory builds a strategy for one client.
type Factory func(ctx *ClientCtx) Strategy

// Config drives one federated continual-learning run.
type Config struct {
	Method     string
	Rounds     int // aggregation rounds per task (r)
	LocalIters int // local iterations per round (v)
	BatchSize  int
	LR         float64
	LRDecay    float64
	NumClasses int
	Bandwidth  float64 // bytes/second per client link
	MemScale   float64 // sim-bytes → real-bytes multiplier for OOM checks
	Seed       uint64
	// Parallelism is the number of concurrent clients; 0 = GOMAXPROCS.
	// fingerprint:exempt execution width never changes results — the fold
	// is order-pinned by ascending client ID regardless of worker count
	// (TestEngineDeterministicAcrossParallelism), so two processes may
	// legitimately disagree on it and still run the same job.
	Parallelism int
	// DropoutProb is the per-round probability that a client goes offline
	// for that round (skips local training and aggregation) — the failure
	// injection used to check that FedAvg-style protocols tolerate edge
	// churn. 0 disables dropout. Only the synchronous scheduler supports it
	// (the asynchronous scheduler models churn as eviction on transport
	// failure instead); NewServer rejects the combination.
	DropoutProb float64
	// Scheduler selects the round-scheduling policy: SchedulerSync (or the
	// empty string) for the lockstep loop, SchedulerAsync for the
	// staleness-bounded buffered-asynchronous policy. Every process of one
	// run must agree — the scheduler changes results, so it is part of the
	// job fingerprint.
	Scheduler string
	// SyncEvict lets the synchronous scheduler evict a client whose
	// transport fails and keep the cohort going, instead of aborting the
	// run (the default, kept for reproducibility: an eviction changes the
	// dropout RNG draw sequence and the aggregation cohort, so two runs
	// that lose different clients diverge). It changes results and is part
	// of the job fingerprint; the asynchronous scheduler always evicts and
	// ignores it.
	SyncEvict bool
	// Async configures the asynchronous scheduler; ignored when Scheduler is
	// sync. See AsyncConfig for the defaults applied to zero fields.
	Async AsyncConfig
	// Shards (-shards) partitions the server's aggregation fold (SparseFedAvg
	// over internal/shard) across this many index ranges folded concurrently
	// on the kernel worker pool. Results are bitwise identical for every
	// shard count — the knob buys server ingest throughput, never different
	// bits — but it is still part of the job fingerprint so every process of
	// one run agrees on the server layout it is load-testing against. 0 or 1
	// is the single loop.
	Shards int
	// Robust (-aggregator) selects the server aggregation rule as a
	// ParseAggregator spec ("fedavg", "trimmed-mean[:beta]", "median",
	// "krum[:f]", "fedopt[:momentum[:inner]]"). The rule changes the global
	// model's bits, so it is part of the job fingerprint — every process of
	// one run must agree. Empty means fedavg.
	Robust string
	// RejectNonFinite (-reject-nonfinite) turns on server ingest hardening:
	// updates carrying NaN/Inf parameters or a non-finite weight are counted
	// and dropped instead of folded. It changes which updates reach the
	// aggregator, so it is part of the job fingerprint. The CLI defaults it
	// on whenever Robust selects a non-fedavg rule.
	RejectNonFinite bool
}

// Scheduler policy names accepted by Config.Scheduler and
// ServerConfig.Scheduler.
const (
	// SchedulerSync is the lockstep policy: every round waits for every
	// alive client (the empty string means the same and is the default).
	SchedulerSync = "sync"
	// SchedulerAsync is the staleness-bounded buffered-asynchronous policy
	// (FedBuff style): clients train continuously against the latest
	// committed global and the server commits every Async.CommitEvery
	// accepted updates.
	SchedulerAsync = "async"
)

// AsyncConfig are the asynchronous scheduler's knobs. The zero value is
// usable: every field has a documented default applied by NewServer.
type AsyncConfig struct {
	// CommitEvery (the CLI's -async-commit-k) is K, the number of accepted
	// updates buffered per global-model commit. 0 defaults to half the
	// cohort (minimum 1). K = cohort size with no stragglers reproduces the
	// synchronous scheduler's per-round accounting.
	CommitEvery int
	// MaxStaleness (-max-staleness) rejects an update whose staleness —
	// current global version minus the update's BaseVersion — exceeds the
	// bound: the update is dropped from aggregation (its traffic and device
	// time still count; the client's training continues). 0 disables the
	// bound.
	MaxStaleness int
	// StalenessAlpha (-staleness-alpha) is α in the staleness weight
	// 1/(1+staleness)^α that scales an accepted update's aggregation weight
	// down the longer it trained against an old global. 0 means no
	// deweighting; fresh updates (staleness 0) are never deweighted at any
	// α.
	StalenessAlpha float64
}

// Fingerprint digests every result-affecting knob of the configuration (and
// the wire-format version). A distributed run only reproduces a loopback run
// if every process derives the same job from the same knobs, so the wire
// handshake carries this digest and the server rejects clients that disagree
// — a seed or hyperparameter mismatch fails loudly instead of silently
// producing non-reproducible results. Parallelism is excluded: it never
// changes results. Shards is included even though it is bitwise-neutral too
// — it selects the server's aggregation layout, and every process of one run
// declaring the layout it runs against is worth more than letting a load
// test accidentally mix them.
//
// Config cannot see job-level knobs that also shape the run — dataset,
// architecture, client count, model width, scale. Callers that know them
// must fold them in as extra strings (the CLI passes all of the above);
// every process of one run must pass the same extras in the same order.
func (cfg Config) Fingerprint(extra ...string) uint64 {
	const (
		offset64      = 14695981039346656037 // FNV-1a
		prime64       = 1099511628211
		formatVersion = 5 // v5: elastic membership (join hello variant + leave frame)
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xFF)) * prime64
			v >>= 8
		}
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for _, b := range []byte(s) {
			h = (h ^ uint64(b)) * prime64
		}
	}
	mix(formatVersion)
	mixStr(cfg.Method)
	mix(uint64(cfg.Rounds))
	mix(uint64(cfg.LocalIters))
	mix(uint64(cfg.BatchSize))
	mix(math.Float64bits(cfg.LR))
	mix(math.Float64bits(cfg.LRDecay))
	mix(uint64(cfg.NumClasses))
	mix(math.Float64bits(cfg.Bandwidth))
	mix(math.Float64bits(cfg.MemScale))
	mix(cfg.Seed)
	mix(math.Float64bits(cfg.DropoutProb))
	sched := cfg.Scheduler
	if sched == "" {
		sched = SchedulerSync
	}
	mixStr(sched)
	if cfg.SyncEvict {
		mix(1)
	} else {
		mix(0)
	}
	mix(uint64(cfg.Async.CommitEvery))
	mix(uint64(cfg.Async.MaxStaleness))
	mix(math.Float64bits(cfg.Async.StalenessAlpha))
	mix(uint64(cfg.Shards))
	robust := cfg.Robust
	if robust == "" {
		robust = "fedavg" // the empty spec and the explicit default are one job
	}
	mixStr(robust)
	if cfg.RejectNonFinite {
		mix(1)
	} else {
		mix(0)
	}
	for _, s := range extra {
		mixStr(s)
	}
	return h
}

// ServerConfigFor derives the server-side half of a run configuration: the
// round scheduler's knobs for a federation of numClients clients over
// numTasks tasks. Wire-mode servers use this so both processes agree on the
// protocol from one Config.
func (cfg Config) ServerConfigFor(numClients, numTasks int) ServerConfig {
	return ServerConfig{
		Method:          cfg.Method,
		NumClients:      numClients,
		NumTasks:        numTasks,
		Rounds:          cfg.Rounds,
		Bandwidth:       cfg.Bandwidth,
		DropoutProb:     cfg.DropoutProb,
		Seed:            cfg.Seed,
		Scheduler:       cfg.Scheduler,
		SyncEvict:       cfg.SyncEvict,
		Async:           cfg.Async,
		Shards:          cfg.Shards,
		Robust:          cfg.Robust,
		RejectNonFinite: cfg.RejectNonFinite,
	}
}

// Result aggregates a run's outputs.
type Result struct {
	Method    string
	PerTask   []TaskPoint
	Matrix    *metrics.Matrix // averaged over alive clients
	DeadAfter map[int]int     // client id → task index at which it OOMed
}

// TaskPoint is the measured state after finishing task index TaskIdx.
type TaskPoint struct {
	TaskIdx        int
	AvgAccuracy    float64 // mean over clients of mean accuracy on learned tasks
	ForgettingRate float64
	SimHours       float64 // cumulative simulated training+comm time
	CommHours      float64 // cumulative simulated communication time only
	UpBytes        int64   // cumulative
	DownBytes      int64
}

// Engine wires one Client per task sequence to a Server over loopback
// transports — the in-process binding of the protocol, and a drop-in
// replacement for the old monolithic engine: same Config, same construction
// order, same RNG streams, bitwise-identical results.
type Engine struct {
	server      *Server
	clients     []*Client
	clientLinks []Transport
}

// NewEngine builds clients: one model per client from the builder, the
// strategy from the factory, and the device from the cluster (round-robin if
// the cluster is smaller than the client count).
func NewEngine(cfg Config, cluster *device.Cluster, seqs [][]data.ClientTask,
	build func(rng *tensor.RNG) *model.Model, factory Factory) *Engine {
	root := tensor.NewRNG(cfg.Seed)
	// All clients start from the same initial weights (§V-B common training
	// settings): build one reference model and copy its parameters.
	refFlat := build(root.Fork(0xC0FFEE)).Weights()
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	e := &Engine{
		clients:     make([]*Client, len(seqs)),
		clientLinks: make([]Transport, len(seqs)),
	}
	serverLinks := make([]Transport, len(seqs))
	// The lockstep protocol never has more than two messages in flight per
	// link, but the asynchronous scheduler sends without waiting, so its
	// loopback links get deeper queues. Bounded ones: the async client's
	// inbox pump drains server→client traffic continuously into an
	// unbounded in-process queue, so a commit-loop Send can only ever wait
	// one pump iteration, and client→server uploads are consumed by the
	// scheduler's reader/ack loop — neither direction needs a task's worst
	// case (Rounds×clients) in flight, which at load-test cohort sizes
	// would allocate thousands of slots per link. Rounds+4 keeps a client's
	// own task fully bufferable; the 256 cap bounds memory for huge runs.
	bufCap := loopbackCap
	if cfg.Scheduler == SchedulerAsync {
		bufCap = min(cfg.Rounds+4, 256)
	}
	for i, seq := range seqs {
		rng := root.Fork(uint64(i) + 1)
		c := newClient(cfg, i, len(seqs), cluster.Devices[i%cluster.Size()], seq,
			build, factory, rng, refFlat)
		c.sem = sem
		serverLinks[i], e.clientLinks[i] = LoopbackCap(bufCap)
		e.clients[i] = c
	}
	// nil aggregator → SparseFedAvg, whose dense path is bitwise identical
	// to the batch WeightedFedAvg (the old engine default, now the tests'
	// reference) while streaming sparse updates in O(active knowledge).
	e.server = NewServer(cfg.ServerConfigFor(len(seqs), len(seqs[0])), nil, serverLinks)
	return e
}

// SetObserver installs the streaming progress hook; call before Run.
func (e *Engine) SetObserver(o RoundObserver) { e.server.SetObserver(o) }

// Run executes the full task sequence and returns the result. An Engine is
// single-use. A protocol failure (which cannot happen with well-formed
// inputs over loopback) panics, matching the old monolithic engine's
// fail-loudly behaviour; use RunContext to handle errors or cancel.
func (e *Engine) Run() *Result {
	res, err := e.RunContext(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext is Run with cancellation: it launches the client endpoints,
// drives the server, and waits for every endpoint to drain. Cancelling ctx
// aborts the round loop; the partial Result is returned with ctx's error.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(c *Client, t Transport) {
			defer wg.Done()
			c.Run(ctx, t)
		}(c, e.clientLinks[i])
	}
	res, err := e.server.Run(ctx)
	wg.Wait()
	return res, err
}

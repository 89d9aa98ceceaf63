package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fed"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// LoadBenchOptions size the cohort-scale load measurement: scripted wire
// peers (no real training) hammering one asynchronous server process so the
// aggregation fold — not SGD — is the bottleneck being measured.
type LoadBenchOptions struct {
	// Clients is the cohort size (default 16).
	Clients int
	// Rounds is the number of updates each client uploads (default 30).
	Rounds int
	// N is the parameter-vector length (default 65536).
	N int
	// Density is the fraction of coordinates each client's sparse update
	// touches (default 0.05). Masks are distinct per client, so the round
	// union grows the way ρ-pruned knowledge deltas do in a real cohort.
	Density float64
	// CommitEvery is the async scheduler's K (default: the cohort size).
	CommitEvery int
	// Shards is the sharded mode's reducer count (default: GOMAXPROCS,
	// floored at 2 so the mode is sharded even on a single-core box).
	Shards int
	Seed   uint64
	// Logf receives the servers' operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o *LoadBenchOptions) defaults() {
	if o.Clients == 0 {
		o.Clients = 16
	}
	if o.Rounds == 0 {
		o.Rounds = 30
	}
	if o.N == 0 {
		o.N = 1 << 16
	}
	if o.Density == 0 {
		o.Density = 0.05
	}
	if o.CommitEvery == 0 {
		o.CommitEvery = o.Clients
	}
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards < 2 {
			o.Shards = 2
		}
	}
	if o.Seed == 0 {
		o.Seed = 11
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// LoadModePoint is one aggregator configuration's throughput measurements.
type LoadModePoint struct {
	Shards     int    `json:"shards"`
	Aggregator string `json:"aggregator"`
	// Updates is the number of uploads the server folded; Commits the number
	// of global-model versions it published.
	Updates int `json:"updates"`
	Commits int `json:"commits"`
	// WallSeconds is the whole cohort run, dial to final RoundEnd.
	WallSeconds   float64 `json:"wall_seconds"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	// FoldP50Micros / FoldP99Micros are percentiles of the per-update
	// Accumulate latency, measured around the aggregator fold alone (no
	// decode, no broadcast).
	FoldP50Micros float64 `json:"fold_p50_micros"`
	FoldP99Micros float64 `json:"fold_p99_micros"`
}

// LoadBenchReport is the BENCH_throughput.json payload: the aggregation
// fold's single-loop and sharded layouts under an identical scripted cohort,
// plus the determinism pin's verdict.
type LoadBenchReport struct {
	Cores       int     `json:"cores"`
	Clients     int     `json:"clients"`
	Rounds      int     `json:"rounds"`
	N           int     `json:"n"`
	Density     float64 `json:"density"`
	CommitEvery int     `json:"commit_every"`
	Seed        uint64  `json:"seed"`
	// Deterministic records that LoadDeterminismPin held for this build: the
	// fold agreed bitwise with the reference across shard and kernel-thread
	// counts. The harness refuses to write a report when the pin fails, so a
	// committed report always says true.
	Deterministic bool            `json:"deterministic"`
	Modes         []LoadModePoint `json:"modes"`
	// Speedup is sharded updates/sec over single-loop updates/sec.
	Speedup float64 `json:"speedup"`
	// MinSpeedup, when set in a committed baseline, is the gate Compare
	// enforces: a run whose Speedup falls below it fails. Baselines from
	// single-core builders pin ~0.75 (no parallel win to demand, but a
	// sharded fold that COSTS a third of the throughput is a regression);
	// multi-core baselines pin the honest parallel win (≥ 2 at 4+ cores).
	MinSpeedup float64 `json:"min_speedup,omitempty"`
}

// loadSparse draws a distinct ascending k-coordinate mask for one client.
func loadSparse(rng *tensor.RNG, n int, density float64) *tensor.SparseVec {
	k := int(float64(n) * density)
	if k < 1 {
		k = 1
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	sv := &tensor.SparseVec{N: n, Indices: make([]int32, k), Values: make([]float32, k)}
	for i, j := range idx {
		sv.Indices[i] = int32(j)
	}
	rng.FillNorm(sv.Values, 0.05)
	return sv
}

// foldTimer wraps a streaming aggregator and records each Accumulate's
// latency in microseconds. The async scheduler folds on one goroutine, but
// the recorder locks anyway so the wrapper has no hidden contract.
type foldTimer struct {
	inner fed.StreamAggregator
	mu    sync.Mutex
	folds []float64
}

func (a *foldTimer) Name() string                              { return a.inner.Name() }
func (a *foldTimer) Aggregate(updates []*fed.Update) []float32 { return a.inner.Aggregate(updates) }
func (a *foldTimer) BeginRound()                               { a.inner.BeginRound() }
func (a *foldTimer) FinishRound() []float32                    { return a.inner.FinishRound() }

// samples returns the recorded latencies under the lock; callers only read
// after the run ends, but going through the lock keeps that contract out of
// the callers' heads.
func (a *foldTimer) samples() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.folds
}

func (a *foldTimer) Accumulate(u *fed.Update) {
	start := time.Now()
	a.inner.Accumulate(u)
	micros := float64(time.Since(start).Nanoseconds()) / 1e3
	a.mu.Lock()
	a.folds = append(a.folds, micros)
	a.mu.Unlock()
}

// runLoadPeer scripts one wire client: dial, swallow the task's RoundStart,
// upload rounds copies of its sparse update (BaseVersion tracking the
// latest broadcast so nothing is ever stale), then acknowledge the
// task-final broadcast with a unit evaluation. A reader goroutine drains
// every broadcast as it lands — the discipline that makes small, bounded
// server-side send buffers deadlock-free.
func runLoadPeer(addr string, id, rounds int, sv *tensor.SparseVec) error {
	tr, err := fed.DialWith(addr, id, 0, fed.WireOptions{})
	if err != nil {
		return fmt.Errorf("client %d: %w", id, err)
	}
	defer tr.Close()
	msg, err := tr.Recv()
	if err != nil {
		return fmt.Errorf("client %d: %w", id, err)
	}
	if _, ok := msg.(*fed.RoundStart); !ok {
		return fmt.Errorf("client %d: got %T, want *fed.RoundStart", id, msg)
	}
	var latest atomic.Uint64
	taskFinal := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		for {
			msg, err := tr.Recv()
			if err != nil {
				readErr <- err
				return
			}
			gm, ok := msg.(*fed.GlobalModel)
			if !ok {
				readErr <- fmt.Errorf("got %T, want *fed.GlobalModel", msg)
				return
			}
			latest.Store(gm.Version)
			if gm.TaskFinal {
				close(taskFinal)
				return
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		u := &fed.Update{ClientID: id, Participating: true, Weight: 1,
			Sparse: sv, BaseVersion: latest.Load()}
		if err := tr.Send(u); err != nil {
			return fmt.Errorf("client %d upload %d: %w", id, r, err)
		}
	}
	select {
	case <-taskFinal:
	case err := <-readErr:
		return fmt.Errorf("client %d: %w", id, err)
	}
	if err := tr.Send(&fed.RoundEnd{ClientID: id, EvalAccs: []float64{1}}); err != nil {
		return fmt.Errorf("client %d round-end: %w", id, err)
	}
	// Linger until the server tears the link down at run end: closing first
	// would make the server log a (harmless but noisy) eviction for a client
	// whose work is already fully accounted.
	tr.Recv()
	return nil
}

// runLoadMode drives one full cohort — TCP listener, asynchronous server,
// Clients scripted peers — against the given shard count and returns its
// throughput point.
func runLoadMode(opt LoadBenchOptions, shards int) (LoadModePoint, error) {
	var point LoadModePoint
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return point, err
	}
	addr := ln.Addr().String()
	errs := make(chan error, opt.Clients)
	start := time.Now()
	for id := 0; id < opt.Clients; id++ {
		rng := tensor.NewRNG(opt.Seed).Fork(uint64(id))
		sv := loadSparse(rng, opt.N, opt.Density)
		go func(id int) { errs <- runLoadPeer(addr, id, opt.Rounds, sv) }(id)
	}
	links, err := fed.ServeWith(ln, opt.Clients, 0, fed.WireOptions{})
	ln.Close()
	if err != nil {
		return point, err
	}
	inner := fed.NewShardedFedAvg(shards)
	timer := &foldTimer{inner: inner}
	srv := fed.NewServer(fed.ServerConfig{
		Method: "load", NumTasks: 1, Rounds: opt.Rounds,
		Scheduler: fed.SchedulerAsync,
		Async:     fed.AsyncConfig{CommitEvery: opt.CommitEvery},
		Seed:      opt.Seed, Logf: opt.Logf,
	}, timer, links)
	commits := 0
	srv.SetObserver(fed.ObserverFuncs{Round: func(s fed.RoundStats) { commits++ }})
	if _, err := srv.Run(context.Background()); err != nil {
		return point, fmt.Errorf("server (shards=%d): %w", shards, err)
	}
	wall := time.Since(start).Seconds()
	for i := 0; i < opt.Clients; i++ {
		if err := <-errs; err != nil {
			return point, err
		}
	}
	folds := timer.samples()
	point = LoadModePoint{
		Shards:        shards,
		Aggregator:    inner.Name(),
		Updates:       len(folds),
		Commits:       commits,
		WallSeconds:   wall,
		UpdatesPerSec: float64(len(folds)) / wall,
		CommitsPerSec: float64(commits) / wall,
		FoldP50Micros: stats.Percentile(folds, 0.50),
		FoldP99Micros: stats.Percentile(folds, 0.99),
	}
	return point, nil
}

// RunLoadBench measures the aggregation fold under cohort-scale load: the
// same scripted wire cohort is run once against SparseFedAvg's single-loop
// (1-shard) layout and once at opt.Shards shards, and the two throughput
// points plus their updates/sec ratio become the report. The determinism
// pin runs first — a build whose fold is not bitwise identical to the
// reference at every layout has no business publishing throughput numbers
// for it.
func RunLoadBench(opt LoadBenchOptions) (*LoadBenchReport, error) {
	opt.defaults()
	if err := LoadDeterminismPin(4096, opt.Seed); err != nil {
		return nil, err
	}
	rep := &LoadBenchReport{
		Cores: runtime.GOMAXPROCS(0), Clients: opt.Clients, Rounds: opt.Rounds,
		N: opt.N, Density: opt.Density, CommitEvery: opt.CommitEvery,
		Seed: opt.Seed, Deterministic: true,
	}
	single, err := runLoadMode(opt, 1)
	if err != nil {
		return nil, err
	}
	sharded, err := runLoadMode(opt, opt.Shards)
	if err != nil {
		return nil, err
	}
	rep.Modes = []LoadModePoint{single, sharded}
	if single.UpdatesPerSec > 0 {
		rep.Speedup = sharded.UpdatesPerSec / single.UpdatesPerSec
	}
	return rep, nil
}

// LoadDeterminismPin replays one canned multi-round update sequence — mixed
// sparse masks plus a dense straggler, the worst case for fold ordering —
// through the reference WeightedFedAvg and through SparseFedAvg at shard
// counts {1, 2, 8} under kernel-thread budgets {1, 4}, and fails unless
// every committed vector is bitwise identical to the reference. This is the
// acceptance path a single-core builder relies on: it proves the sharded
// layouts safe to enable even when no parallel speedup is measurable. It
// resets the kernel-thread budget to the default on return.
func LoadDeterminismPin(n int, seed uint64) error {
	defer tensor.SetKernelThreads(0)
	const rounds, clients = 3, 5
	updates := make([][]*fed.Update, rounds)
	for r := range updates {
		for c := 0; c < clients; c++ {
			rng := tensor.NewRNG(seed).Fork(uint64(r*clients + c + 1))
			u := &fed.Update{ClientID: c, Participating: true, Weight: float64(1 + c)}
			if c == clients-1 {
				u.Params = make([]float32, n)
				rng.FillNorm(u.Params, 0.05)
			} else {
				u.Sparse = loadSparse(rng, n, 0.02*float64(c+1))
			}
			updates[r] = append(updates[r], u)
		}
	}
	fold := func(agg fed.Aggregator) [][]float32 {
		out := make([][]float32, rounds)
		for r, ups := range updates {
			out[r] = append([]float32(nil), agg.Aggregate(ups)...)
		}
		return out
	}
	tensor.SetKernelThreads(1)
	ref := fold(&fed.WeightedFedAvg{})
	for _, threads := range []int{1, 4} {
		tensor.SetKernelThreads(threads)
		for _, shards := range []int{1, 2, 8} {
			got := fold(fed.NewShardedFedAvg(shards))
			for r := range ref {
				if len(got[r]) != len(ref[r]) {
					return fmt.Errorf("determinism pin: shards=%d threads=%d round %d folded %d params, want %d",
						shards, threads, r, len(got[r]), len(ref[r]))
				}
				for j := range ref[r] {
					if got[r][j] != ref[r][j] {
						return fmt.Errorf("determinism pin: shards=%d threads=%d round %d diverges at coordinate %d: %v != %v",
							shards, threads, r, j, got[r][j], ref[r][j])
					}
				}
			}
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON to path.
func (r *LoadBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadLoadBench loads a report written by WriteJSON.
func ReadLoadBench(path string) (*LoadBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r LoadBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Print renders the report as an aligned table.
func (r *LoadBenchReport) Print(w io.Writer) {
	fmt.Fprintf(w, "cohort load bench: clients=%d rounds=%d n=%d density=%.3f K=%d cores=%d deterministic=%v\n",
		r.Clients, r.Rounds, r.N, r.Density, r.CommitEvery, r.Cores, r.Deterministic)
	t := &Table{Title: "throughput", Header: []string{"aggregator", "shards", "updates/s", "commits/s", "fold p50 µs", "fold p99 µs", "wall s"}}
	for _, m := range r.Modes {
		t.Rows = append(t.Rows, []string{
			m.Aggregator, fmt.Sprint(m.Shards),
			fmt.Sprintf("%.0f", m.UpdatesPerSec), fmt.Sprintf("%.1f", m.CommitsPerSec),
			fmt.Sprintf("%.0f", m.FoldP50Micros), fmt.Sprintf("%.0f", m.FoldP99Micros),
			fmt.Sprintf("%.2f", m.WallSeconds),
		})
	}
	t.Print(w)
	fmt.Fprintf(w, "sharded/single updates-per-second: %.2fx\n", r.Speedup)
}

// Compare gates this run against a committed baseline: the cohort shapes
// must match (a throughput ratio between different workloads means
// nothing), and the measured speedup must not fall below the baseline's
// MinSpeedup (minOverride, when positive, replaces it — the CI knob for
// builders whose core count differs from the baseline's). Absolute
// updates/sec are printed for trend-watching but never fail — hardware
// varies; the speedup is the hardware-relative signal worth gating.
func (r *LoadBenchReport) Compare(base *LoadBenchReport, minOverride float64, w io.Writer) error {
	fmt.Fprintf(w, "\n== vs baseline ==\n")
	if r.Clients != base.Clients || r.Rounds != base.Rounds || r.N != base.N ||
		r.Density != base.Density || r.CommitEvery != base.CommitEvery {
		return fmt.Errorf("baseline shape mismatch: clients/rounds/n/density/K = %d/%d/%d/%g/%d vs baseline %d/%d/%d/%g/%d — regenerate the baseline",
			r.Clients, r.Rounds, r.N, r.Density, r.CommitEvery,
			base.Clients, base.Rounds, base.N, base.Density, base.CommitEvery)
	}
	baseModes := map[int]LoadModePoint{}
	for _, m := range base.Modes {
		baseModes[m.Shards] = m
	}
	for _, m := range r.Modes {
		if b, ok := baseModes[m.Shards]; ok && b.UpdatesPerSec > 0 {
			fmt.Fprintf(w, "%-14s shards=%-3d updates/s %.0f → %.0f (%.2fx)\n",
				m.Aggregator, m.Shards, b.UpdatesPerSec, m.UpdatesPerSec, m.UpdatesPerSec/b.UpdatesPerSec)
		}
	}
	min := base.MinSpeedup
	if minOverride > 0 {
		min = minOverride
	}
	fmt.Fprintf(w, "speedup %.2fx (baseline %.2fx, floor %.2fx)\n", r.Speedup, base.Speedup, min)
	if min > 0 && r.Speedup < min {
		return fmt.Errorf("sharded aggregation speedup %.2fx fell below the %.2fx floor: fold regression (or regenerate the baseline deliberately)",
			r.Speedup, min)
	}
	return nil
}

// Command fedknow-load measures aggregation throughput at cohort scale: it
// starts one asynchronous server process and a cohort of scripted wire
// peers that upload precomputed sparse updates as fast as the server folds
// them — no real training, so the aggregation fold is the bottleneck being
// measured. The same cohort runs twice, against SparseFedAvg's single-loop
// layout and against its -shards layout (ShardedFedAvg(P)), and the report
// (updates/sec, commits/sec, p50/p99 fold latency, sharded/single speedup)
// is written as JSON.
//
// Usage:
//
//	fedknow-load
//	fedknow-load -clients 32 -rounds 50 -params 65536 -shards 8
//	fedknow-load -bench-out bench/BENCH_throughput.json -baseline bench/BENCH_throughput_baseline.json
//
// Before any measurement the determinism pin replays a canned update
// sequence through the fold across shard and kernel-thread counts and aborts
// unless every layout agrees bitwise with the reference — on a single-core
// box, where no parallel speedup is measurable, that pin is the result that
// matters, and the JSON is emitted either way.
//
// With -baseline the run is additionally gated against a committed report:
// the cohort shape must match and the measured speedup must not fall below
// the baseline's floor (-min-speedup overrides it, for builders whose core
// count differs from the baseline's). The gate makes fold-throughput
// regressions a CI failure instead of a dashboard footnote.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
)

func main() {
	clients := flag.Int("clients", 16, "cohort size (scripted wire peers)")
	rounds := flag.Int("rounds", 30, "updates each client uploads")
	params := flag.Int("params", 1<<16, "parameter-vector length")
	density := flag.Float64("density", 0.05, "fraction of coordinates each client's sparse update touches (masks are distinct per client)")
	commitEvery := flag.Int("commit-every", 0, "async commit window K (0 = the cohort size)")
	shards := flag.Int("shards", 0, "sharded mode's reducer count (0 = GOMAXPROCS, floored at 2)")
	seed := flag.Uint64("seed", 11, "random seed for the clients' sparse masks")
	benchOut := flag.String("bench-out", "BENCH_throughput.json", "output path for the JSON report")
	baseline := flag.String("baseline", "", "baseline BENCH_throughput.json to gate against (exits non-zero when the speedup falls below its floor)")
	minSpeedup := flag.Float64("min-speedup", 0, "override the baseline's speedup floor (0 = use the baseline's min_speedup)")
	quiet := flag.Bool("quiet", false, "suppress the servers' operational log lines")
	flag.Parse()

	opt := experiments.LoadBenchOptions{
		Clients: *clients, Rounds: *rounds, N: *params, Density: *density,
		CommitEvery: *commitEvery, Shards: *shards, Seed: *seed,
	}
	if !*quiet {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := experiments.RunLoadBench(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.Print(os.Stdout)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("single-core box: the determinism pin is the acceptance signal; the speedup figure only reflects sharding overhead")
	}
	if err := rep.WriteJSON(*benchOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *benchOut)
	if *baseline != "" {
		base, err := experiments.ReadLoadBench(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
			os.Exit(1)
		}
		if err := rep.Compare(base, *minSpeedup, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

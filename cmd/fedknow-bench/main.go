// Command fedknow-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedknow-bench -exp fig4a -scale ci
//	fedknow-bench -exp table1 -scale full
//	fedknow-bench -exp all
//	fedknow-bench -exp fig5 -cpuprofile cpu.prof -memprofile mem.prof
//
// Experiments: fig4a–fig4h, table1, fig5, fig6, fig7, fig8, fig9, fig10,
// ablation, hyper, all. Scale "ci" (default) runs the laptop-sized
// configuration; "full" mirrors the paper's client/round counts and takes
// hours on CPU.
//
// Every experiment also accepts the scheduler knobs (-scheduler
// async -async-commit-k 4 -max-staleness 8 -staleness-alpha 0.5) to
// regenerate any artefact under asynchronous scheduling.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/profiling"
	"repro/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig4a..fig4h, table1, fig5, fig6, fig7, fig8, fig9, fig10, ablation, hyper, all)")
	scale := flag.String("scale", "ci", "ci or full")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "concurrent clients per federated engine (0 = GOMAXPROCS)")
	kernelThreads := flag.Int("kernel-threads", 0, "extra tensor-kernel workers shared across clients (0 = GOMAXPROCS); training clients also run kernels inline; results are identical for every setting")
	progress := flag.Bool("progress", false, "stream one line per finished task of every engine run (full-scale runs take hours; this shows they are alive)")
	scheduler := flag.String("scheduler", "sync", "round-scheduling policy for the figure/table experiments: sync (lockstep, bit-reproducible) or async (staleness-bounded buffered commits)")
	asyncCommitK := flag.Int("async-commit-k", 0, "async scheduler: commit the global model every K accepted updates (0 = half the cohort)")
	maxStaleness := flag.Int("max-staleness", 0, "async scheduler: reject updates staler than this many global versions (0 = unbounded)")
	stalenessAlpha := flag.Float64("staleness-alpha", 0.5, "async scheduler: alpha in the staleness weight 1/(1+staleness)^alpha (0 disables deweighting)")
	syncEvict := flag.Bool("sync-evict", false, "sync scheduler: evict a dropped client and keep the cohort going instead of aborting (relaxes lockstep reproducibility)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	shards := flag.Int("shards", 0, "partition each engine's server-side aggregation fold across this many concurrent per-shard reducers (bitwise-identical results for every value; 0 or 1 = single-loop default)")
	flag.Parse()
	tensor.SetKernelThreads(*kernelThreads)
	if *scheduler != fed.SchedulerSync && *scheduler != fed.SchedulerAsync {
		fmt.Fprintf(os.Stderr, "unknown -scheduler %q (sync, async)\n", *scheduler)
		os.Exit(2)
	}

	var sc data.Scale
	switch *scale {
	case "ci":
		sc = data.CI
	case "full":
		sc = data.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	opt := experiments.Options{Scale: sc, Seed: *seed, Out: os.Stdout, Parallelism: *parallel,
		Scheduler: *scheduler, SyncEvict: *syncEvict, AsyncCommitK: *asyncCommitK,
		MaxStaleness: *maxStaleness, StalenessAlpha: *stalenessAlpha,
		Shards: *shards}
	if *progress {
		opt.Observer = fed.ObserverFuncs{Task: func(tp fed.TaskPoint) {
			fmt.Fprintf(os.Stderr, "  · task %d done: avg-acc %.4f, sim-hours %.4f\n",
				tp.TaskIdx+1, tp.AvgAccuracy, tp.SimHours)
		}}
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The profiles are written however the run ended.
	if err = errors.Join(runPaperExperiments(*exp, opt), stopProfiles()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runPaperExperiments regenerates one table or figure of the paper, or all
// of them, stopping at the first that fails.
func runPaperExperiments(exp string, opt experiments.Options) error {
	ids := []string{exp}
	if exp == "all" {
		ids = []string{"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "fig4g", "fig4h",
			"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ablation", "hyper"}
	}
	for _, id := range ids {
		start := time.Now()
		fmt.Printf("\n### running %s (scale=%s)\n", id, opt.Scale)
		var err error
		switch {
		case strings.HasPrefix(id, "fig4"):
			_, err = experiments.Fig4(strings.TrimPrefix(id, "fig4"), opt)
		case id == "table1":
			_, err = experiments.Table1(opt, nil)
		case id == "fig5":
			_, err = experiments.Fig5(opt, nil)
		case id == "fig6":
			_, err = experiments.Fig6(opt)
		case id == "fig7":
			_, err = experiments.Fig7(opt)
		case id == "fig8":
			_, err = experiments.Fig8(opt)
		case id == "fig9":
			_, err = experiments.Fig9(opt, nil)
		case id == "fig10":
			_, err = experiments.Fig10(opt)
		case id == "ablation":
			_, err = experiments.Ablation(opt)
		case id == "hyper":
			_, err = experiments.HyperSearch("FedKNOW", opt)
		default:
			err = fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return fmt.Errorf("%s failed: %w", id, err)
		}
		fmt.Printf("### %s done in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

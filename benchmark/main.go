// Command benchmark is the repository's one benchmark: four named workloads,
// each checked for correctness, every metric printed by name with its unit.
//
// One run of one workload, the form the acceptance driver calls (through
// run.sh, which builds this program first):
//
//	benchmark -workload fedknow_train -seed 1 -seconds 20 -trace 0
//
// prints the end-to-end metrics (-trace 0) or the per-layer metrics of a
// traced job plus layer probes (-trace 1), and ends its standard output with
// one JSON object {"correct", "attempted", "failed", "metrics"}. The process
// is the unit of isolation: peak RSS, GC state and the global kernel-thread
// budget never leak between runs because every run is a fresh process.
//
// With no -workload it runs the whole suite — every workload -repeats times
// untraced and once traced, each in a child process re-executing this binary
// — and writes out/suite_seed<n>.json; -compare a.json b.json judges two
// such files against the bounds. -manifest prints BENCHMARK.json. See
// README.md for the metric glossary and how a later change states a claim.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run performs its set-up before the first
// job, so setup_s is a median and not one cold sample.
const setupRepeats = 9

// jobTimeout bounds one job. The slowest job takes ≈ 8 s on the reference
// box, twice that beside a busy neighbour; a run must end within 180 s.
const jobTimeout = 60 * time.Second

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // toy sizes: the benchmark's own tests use it
	home     string // the benchmark's directory: .work/ and out/ live under it
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the JSON object a run ends its standard output with.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// digest, when hasDigest, is the training result digest every job of the
	// run agreed on; it is printed on its own line, not in the JSON object.
	digest    uint64
	hasDigest bool
}

// benchJob is one fixed-size job of a workload between its set-up (the
// constructor) and its teardown.
type benchJob interface {
	// execute is the timed region. A job of several tasks splits the meter's
	// segment between them.
	execute(ctx context.Context, m *meter)
	// sample checks the finished job and reports what it did.
	sample() jobSample
	// discard releases whatever the job still holds, run or not.
	discard()
	// updates is the number of uploads the job folds, fixed by its spec.
	updates() int
}

// jobSample is what one finished job contributes to a run.
type jobSample struct {
	updates   int // uploads accepted and folded
	steps     int // TrainStep calls (0 on ingest)
	rounds    []roundSample
	lockstep  bool  // the k-th round of every job at a seed is the same work
	wireBytes int64 // measured on the server's TCP links (0 over loopback)
	attempted int
	failures  []string
	digest    uint64 // train only: equal seeds must give equal digests
	hasDigest bool
}

// newJob performs one set-up of the workload and returns the job with the
// time the set-up took.
func newJob(cfg runConfig, cohort, seq int, tr *tracer) (benchJob, float64, error) {
	t0 := time.Now()
	var j benchJob
	var err error
	if spec, ok := trainSpecs[cfg.workload]; ok {
		if cfg.smoke {
			spec = smokeTrain(spec)
		}
		var tj *trainJob
		tj, err = newTrainJob(spec, cohort, cfg.seed, tr)
		j = tj
	} else if spec, ok := ingestSpecs[cfg.workload]; ok {
		if cfg.smoke {
			spec = smokeIngest(spec)
		}
		var ij *ingestJob
		ij, err = newIngestJob(spec, cohort, cfg.seed, tr, jobWorkDir(cfg.home, cfg.workload, seq))
		j = ij
	} else {
		return nil, 0, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	return j, time.Since(t0).Seconds(), nil
}

// timedJob is one executed job with its clocks.
type timedJob struct {
	jobSample
	setupS float64
	// The timed region, probes excluded, whole and by segment.
	wallS, cpuS float64
	segs        []segment
	roundMs     []float64
	// first and last are the probes before and after the timed region (0
	// without a calibrator).
	first, last float64
	// MemStats deltas over the timed region.
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
}

// runJob sets a job up (traced when t is not nil), runs it between the
// clocks (with a probe around every segment when cal is not nil), checks it
// and tears it down. onDone, when set, sees the job after the timed region
// and before the teardown (the traced run reads spans and captured payloads
// there).
func runJob(cfg runConfig, cohort, seq int, t *tracer, cal *calibrator, onDone func(benchJob)) (*timedJob, error) {
	j, setupS, err := newJob(cfg, cohort, seq, t)
	if err != nil {
		return nil, err
	}
	defer j.discard()
	// Start every timed region from a collected heap, so one job's garbage
	// is not the next one's GC pause.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if t != nil {
		t.start()
	}
	// A job that has not finished after jobTimeout is stuck: cancelling makes
	// the server close every link, so its clients and peers unwind and the
	// run ends with failures instead of hanging until the driver kills it.
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	m := &meter{cal: cal, sensitivity: sensitivityOf(cfg.workload)}
	m.start()
	j.execute(ctx, m)
	out := &timedJob{setupS: setupS, first: m.first, last: m.stop(), segs: m.segs}
	out.wallS, out.cpuS = m.totals()
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.gcCycles = m1.NumGC - m0.NumGC
	out.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	out.jobSample = j.sample()
	for _, r := range out.rounds {
		out.roundMs = append(out.roundMs, r.ms+r.ms2)
	}
	if onDone != nil {
		onDone(j)
	}
	return out, nil
}

// measureEndToEnd is a -trace 0 run: repeated set-ups, then fixed-size jobs
// until about cfg.seconds of timed region have been measured (a further job
// starts only while half of it still fits), then the end-to-end metrics, in
// reference-speed units (calib.go).
func measureEndToEnd(cfg runConfig, cohort int, log io.Writer) (*runOutput, error) {
	out := &runOutput{Metrics: map[string]metricValue{}}
	cal := newCalibrator()
	var setups []float64
	before := cal.probe()
	setup := func(s, after float64) {
		_, factor := slowdown(before, after, sensitivityOf(cfg.workload))
		setups = append(setups, s/factor)
		before = after
	}
	for i := 0; i < setupRepeats-1; i++ {
		j, s, err := newJob(cfg, cohort, -1-i, nil)
		if err != nil {
			return nil, err
		}
		j.discard()
		setup(s, cal.probe())
	}
	var jobs []*timedJob
	var elapsed float64
	for seq := 0; ; seq++ {
		tj, err := runJob(cfg, cohort, seq, nil, cal, nil)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, tj)
		setup(tj.setupS, tj.first)
		before = tj.last
		elapsed += tj.wallS
		fmt.Fprintf(log, "job %d: setup %.4f s, wall %.4f s, cpu %.4f s, %d updates, %d failures; machine", seq, tj.setupS, tj.wallS, tj.cpuS, tj.updates, len(tj.failures))
		for _, sg := range tj.segs {
			fmt.Fprintf(log, " %.2f", sg.slow)
		}
		fmt.Fprintln(log, " of nominal")
		if elapsed+tj.wallS/2 >= cfg.seconds {
			break
		}
	}

	for i, tj := range jobs {
		out.Attempted += tj.attempted
		out.Failed += len(tj.failures)
		for _, f := range tj.failures {
			fmt.Fprintf(log, "FAIL job %d: %s\n", i, f)
		}
		if tj.hasDigest && jobs[0].hasDigest {
			out.Attempted++
			if tj.digest != jobs[0].digest {
				out.Failed++
				fmt.Fprintf(log, "FAIL job %d: result digest %#x differs from job 0's %#x at the same seed\n", i, tj.digest, jobs[0].digest)
			}
		}
	}
	out.digest, out.hasDigest = jobs[0].digest, jobs[0].hasDigest

	// Every job is the same sequence of segments. A segment's time is the
	// median over its repeats, a job's time the sum over its segments.
	nseg := len(jobs[0].segs)
	for _, tj := range jobs {
		nseg = min(nseg, len(tj.segs)) // a failed job may have stopped early
	}
	var wallS, cpuS, rawWallS float64
	for k := 0; k < nseg; k++ {
		var walls, cpus, raw []float64
		for _, tj := range jobs {
			sg := tj.segs[k]
			walls, cpus, raw = append(walls, sg.wallS/sg.factor), append(cpus, sg.cpuS/sg.factor), append(raw, sg.wallS)
		}
		wallS += median(walls)
		cpuS += median(cpus)
		rawWallS += median(raw)
	}
	var rounds, rawRounds []float64
	perJob := make([][]float64, len(jobs))
	nround := len(jobs[0].rounds)
	for i, tj := range jobs {
		for _, r := range tj.rounds {
			if r.seg < len(tj.segs) && (r.ms2 == 0 || r.seg+1 < len(tj.segs)) {
				perJob[i] = append(perJob[i], r.refMs(tj.segs))
			}
		}
		nround = min(nround, len(perJob[i]))
		rawRounds = append(rawRounds, tj.roundMs...)
	}
	if jobs[0].lockstep {
		// Repeats of the same round: one sample per round, its median.
		for k := 0; k < nround; k++ {
			var reps []float64
			for i := range jobs {
				reps = append(reps, perJob[i][k])
			}
			rounds = append(rounds, median(reps))
		}
	} else {
		for i := range jobs {
			rounds = append(rounds, perJob[i]...)
		}
	}
	n := float64(jobs[0].updates)
	vals := map[string]float64{
		"setup_s":           median(setups),
		"updates_per_s":     n / wallS,
		"round_ms_p50":      percentile(rounds, 0.50),
		"round_ms_p90":      percentile(rounds, 0.90),
		"cpu_ms_per_update": cpuS * 1e3 / n,
		"peak_rss_mb":       peakRSSMiB(),
	}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	fmt.Fprintf(log, "as the clock read: updates_per_s %.6g, round_ms_p50 %.6g, round_ms_p90 %.6g\n",
		n/rawWallS, percentile(rawRounds, 0.50), percentile(rawRounds, 0.90))
	tail, _ := tailPercentile(len(rounds))
	fmt.Fprintf(log, "samples: %d set-ups, %d jobs of %d segments, %d rounds (%d beyond p90; the ten-beyond rule allows p%g at this count)\n",
		len(setups), len(jobs), nseg, len(rounds), samplesBeyond(len(rounds), 0.90), tail*100)
	out.Correct = out.Failed == 0
	return out, nil
}

// printMetrics writes every metric of defs by name with its unit.
func printMetrics(w io.Writer, defs []metricDef, got map[string]metricValue) {
	for _, m := range defs {
		if v, ok := got[m.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// runOne is one run of one workload in this process.
func runOne(cfg runConfig, stdout, log io.Writer) error {
	if err := os.MkdirAll(filepath.Join(cfg.home, ".work"), 0o755); err != nil {
		return err
	}
	// One busy hardware thread: two would contend for one core whenever the
	// host schedules them as siblings (calib.go).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cohort := cohortSize()
	st := newStamp(filepath.Join(cfg.home, ".work"), cfg.seed)
	fmt.Fprintf(log, "workload %s trace=%v seconds=%g smoke=%v\nstamp %s\n", cfg.workload, cfg.trace, cfg.seconds, cfg.smoke, st)

	var out *runOutput
	var err error
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out, err = measureLayers(cfg, cohort, st, log)
	} else {
		_, isTrain := trainSpecs[cfg.workload]
		if isTrain {
			// Transports must be interchangeable before a number measured
			// over either means anything.
			if err := preflight(cohort, cfg.seed); err != nil {
				return err
			}
		}
		out, err = measureEndToEnd(cfg, cohort, log)
		if err == nil && isTrain {
			out.Attempted++ // the preflight
		}
	}
	if err != nil {
		return err
	}
	printMetrics(stdout, defs, out.Metrics)
	if out.hasDigest {
		fmt.Fprintf(stdout, "%s%#x\n", digestPrefix, out.digest)
	}
	fmt.Fprintf(stdout, "attempted %d failed %d fail_ratio %g\n", out.Attempted, out.Failed,
		float64(out.Failed)/float64(out.Attempted))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: drives the dataset, the federation, the engine and the scripted peers")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: one traced job plus layer probes, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "toy sizes (seconds-long suite; numbers are meaningless)")
	flag.StringVar(&cfg.home, "home", "benchmark", "the benchmark's directory; .work/ and out/ are created under it")
	repeats := flag.Int("repeats", 3, "suite mode: untraced runs per workload")
	compare := flag.Bool("compare", false, "compare two suite files: -compare a.json b.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case *printManifest:
		var doc []byte
		if doc, err = manifest(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two suite files, got %d arguments", flag.NArg())
		} else {
			var regressed bool
			if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
				os.Exit(1)
			}
		}
	case cfg.workload != "":
		err = runOne(cfg, os.Stdout, os.Stderr)
	default:
		err = runSuite(cfg, *repeats, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// workloadNames lists the workload names for usage text.
func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

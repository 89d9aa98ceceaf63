package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fed"
	"repro/internal/nn"
)

// traceFile is what out/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Stamp    stamp  `json:"stamp"`
	WallNs   int64  `json:"wall_ns"`
	Spans    []span `json:"spans"`
}

// measureLayers is a -trace 1 run: one untraced reference job (the base of
// the tracing overhead and of the runtime counters), one traced job, then
// the layer probes. It reports every per-layer metric; one whose layer is
// not on this workload's path stays 0.
func measureLayers(cfg runConfig, cohort int, st stamp, log io.Writer) (*runOutput, error) {
	out := &runOutput{Metrics: map[string]metricValue{}}
	vals := map[string]float64{}

	ref, err := runJob(cfg, cohort, 0, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if ref.wallS*4 < cfg.seconds && len(ref.failures) == 0 {
		// A process's first job pays for heap growth and cold caches; on a
		// job of a few seconds that is a tenth of the wall and would read as
		// negative tracing overhead. Measure the reference warm.
		if ref, err = runJob(cfg, cohort, 0, nil, nil, nil); err != nil {
			return nil, err
		}
	}
	_, isTrain := trainSpecs[cfg.workload]
	async := !isTrain
	var spans []span
	var tracedErr error
	var fedavgStepUs float64
	tr := newTracer(async)
	traced, err := runJob(cfg, cohort, 1, tr, nil, func(j benchJob) {
		spans = tr.finish()
		switch j := j.(type) {
		case *trainJob:
			fedavgStepUs = probeTrain(vals, j)
		case *ingestJob:
			probeIngest(vals, j)
		}
		tracedErr = writeTrace(cfg, st, spans)
		spanMetrics(vals, spans, tr, j.updates(), cohort)
	})
	if err != nil {
		return nil, err
	}
	if tracedErr != nil {
		return nil, tracedErr
	}
	for i, tj := range []*timedJob{ref, traced} {
		out.Attempted += tj.attempted
		out.Failed += len(tj.failures)
		for _, f := range tj.failures {
			fmt.Fprintf(log, "FAIL job %d: %s\n", i, f)
		}
	}
	out.digest, out.hasDigest = ref.digest, ref.hasDigest
	if ref.hasDigest && traced.hasDigest {
		out.Attempted++
		if ref.digest != traced.digest {
			out.Failed++
			fmt.Fprintf(log, "FAIL traced job's digest %#x differs from the untraced job's %#x: the decorators changed the program\n",
				traced.digest, ref.digest)
		}
	}
	fmt.Fprintf(log, "reference job: wall %.4f s; traced job: wall %.4f s, %d spans\n", ref.wallS, traced.wallS, len(spans))
	if cfg.workload == wlSparse {
		durable, err := measureDurable(cfg, cohort, vals)
		if err != nil {
			return nil, err
		}
		out.Attempted += durable.attempted
		out.Failed += len(durable.failures)
		for _, f := range durable.failures {
			fmt.Fprintf(log, "FAIL durable job: %s\n", f)
		}
		fmt.Fprintf(log, "durable job: wall %.4f s\n", durable.wallS)
	}

	vals["runtime.allocs_per_update"] = float64(ref.mallocs) / float64(ref.updates)
	vals["runtime.gc_cycles"] = float64(ref.gcCycles)
	vals["runtime.gc_pause_ms"] = float64(ref.gcPauseNs) / 1e6
	vals["bench.trace_overhead_pct"] = (traced.wallS/ref.wallS - 1) * 100
	vals["fed.client.steps_per_s"] = float64(ref.steps) / ref.wallS
	vals["fed.wire.bytes_per_update"] = float64(traced.wireBytes) / float64(traced.updates)
	if !isTrain {
		vals["fed.peer.commit_ms_p99"] = percentile(traced.roundMs, 0.99)
	}
	if fedavgStepUs > 0 {
		vals["fed.client.fedknow_overhead_x"] = vals["fed.client.train_step_us_p50"] / fedavgStepUs
	}
	for _, m := range perLayer {
		out.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// measureDurable repeats the sparse ingest job traced and with the durable
// snapshot store, and reports the checkpoint layer from it: the sink's spans,
// the snapshot probes, and the job's own rate.
func measureDurable(cfg runConfig, cohort int, vals map[string]float64) (*timedJob, error) {
	cfg.workload = wlDurable
	tr := newTracer(true)
	tj, err := runJob(cfg, cohort, 2, tr, nil, func(j benchJob) {
		layer := map[string]float64{}
		spanMetrics(layer, tr.finish(), tr, j.updates(), cohort)
		probeCheckpoint(layer, j.(*ingestJob).sink)
		for name, v := range layer {
			if strings.HasPrefix(name, "checkpoint.") {
				vals[name] = v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	vals["checkpoint.durable_updates_per_s"] = float64(tj.updates) / tj.wallS
	return tj, nil
}

// writeTrace writes the traced job's spans to out/trace_<workload>.json.
func writeTrace(cfg runConfig, st stamp, spans []span) error {
	dir := filepath.Join(cfg.home, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(traceFile{Workload: cfg.workload, Stamp: st, WallNs: spans[0].End - spans[0].Start, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+cfg.workload+".json"), doc, 0o644)
}

// spanMetrics turns the traced job's spans into the seam metrics.
func spanMetrics(vals map[string]float64, spans []span, tr *tracer, updates, cohort int) {
	root := spans[tr.root]
	wall := float64(root.End - root.Start)
	self := selfTimes(spans)
	durUs := map[string][]float64{}
	for _, s := range spans {
		durUs[s.Name] = append(durUs[s.Name], float64(s.End-s.Start)/1e3)
	}
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}

	if steps := durUs[spanStep]; len(steps) > 0 {
		vals["fed.client.train_step_us_p50"] = percentile(steps, 0.50)
		vals["fed.client.train_step_us_p90"] = percentile(steps, 0.90)
		vals["fed.client.train_step_count"] = float64(len(steps))
		vals["fed.client.after_aggregate_us_p50"] = median(durUs[spanAfter])
		vals["fed.client.task_end_us_p50"] = median(durUs[spanEnd])
		vals["fed.client.train_share"] = sum(steps) * 1e3 / (wall * float64(busyWidth(cohort)))
	}
	if folds := durUs[spanFold]; len(folds) > 0 {
		vals["fed.agg.accumulate_us_p50"] = percentile(folds, 0.50)
		vals["fed.agg.accumulate_us_p99"] = percentile(folds, 0.99)
		vals["fed.agg.finish_us_p50"] = median(durUs[spanFinish])
		vals["fed.agg.accumulate_count"] = float64(len(folds))
	}
	if saves := durUs[spanSave]; len(saves) > 0 {
		vals["checkpoint.save_us_p50"] = percentile(saves, 0.50)
		vals["checkpoint.save_us_p99"] = percentile(saves, 0.99)
		vals["checkpoint.save_count"] = float64(len(saves))
		vals["checkpoint.saves_per_update"] = float64(len(saves)) / float64(updates)
	}

	// Scheduler idle and the unaccounted remainder. Lockstep: the server
	// goroutine is idle while blocked in Recv, and whatever of the run no
	// server span covers is unaccounted. Asynchronous: the event loop is idle
	// while no received message is inside the server (the root's self time),
	// and the part of the busy time no fold / finish / save / send covers is
	// unaccounted (decode hand-off, admission, bookkeeping — and the fold
	// itself on the durable workload, whose aggregator stays undecorated).
	if tr.async {
		var leaves [][2]int64
		for _, s := range spans {
			if s.Name != spanRun && s.Name != spanHandle {
				leaves = append(leaves, [2]int64{s.Start, s.End})
			}
		}
		busy := wall - float64(self[tr.root])
		vals["fed.sched.idle_share"] = float64(self[tr.root]) / wall
		vals["trace.unaccounted_share"] = (busy - float64(unionLength(leaves, root.Start, root.End))) / wall
	} else {
		vals["fed.sched.idle_share"] = sum(durUs[spanRecv]) * 1e3 / wall
		vals["trace.unaccounted_share"] = float64(self[tr.root]) / wall
	}
	var saves [][2]int64
	for _, s := range spans {
		if s.Name == spanSave {
			saves = append(saves, [2]int64{s.Start, s.End})
		}
	}
	var commitUs, castUs []float64
	for _, c := range tr.commits {
		if c.firstSend == 0 {
			continue
		}
		// The commit's self time: the write-ahead cut inside it is the
		// checkpoint layer's, not the scheduler's.
		own := c.firstSend - c.uploadIn - unionLength(saves, c.uploadIn, c.firstSend)
		commitUs = append(commitUs, float64(own)/1e3)
		castUs = append(castUs, float64(c.lastSendRe-c.firstSend)/1e3)
	}
	vals["fed.sched.commit_us_p50"] = percentile(commitUs, 0.50)
	vals["fed.sched.commit_us_p99"] = percentile(commitUs, 0.99)
	vals["fed.sched.broadcast_us_p50"] = median(castUs)
	vals["fed.sched.commits"] = float64(len(commitUs))
	vals["trace.spans"] = float64(len(spans))
}

// probeTrain runs the probes of a training workload on the traced job's own
// model, batch and payload, and returns the plain FedAvg step's median (µs).
func probeTrain(vals map[string]float64, j *trainJob) (fedavgStepUs float64) {
	fedavgStepUs = probeTrainLayers(vals, j, j.spec.method == "FedKNOW")
	if j.spec.wire {
		// The dense payload the wire actually carried: one client's final
		// parameters as its upload, the same vector as the global.
		flat := nn.FlattenParams(j.clients[0].Ctx().Model.Params())
		up := &fed.Update{ClientID: 0, Participating: true, Weight: 8, Params: flat,
			ComputeSeconds: 1, UpBytes: int64(4 * len(flat)), DownBytes: int64(4 * len(flat))}
		probeCodec(vals, up, flat)
	}
	return fedavgStepUs
}

// probeIngest runs the probes of an ingest workload on the traced job's own
// updates and snapshots.
func probeIngest(vals map[string]float64, j *ingestJob) {
	ups := make([]fed.Update, len(j.peers))
	for i, p := range j.peers {
		ups[i] = p.update
	}
	probeCodec(vals, &ups[0], j.offlineFold())
	probeFold(vals, ups, j.cohort)
	if j.spec.sparse {
		probeAxpySparse(vals, ups[0].Sparse)
	}
	if j.spec.sharded {
		probeTensorParallel(vals, j.cohort)
	}
	if j.sink != nil {
		probeCheckpoint(vals, j.sink)
	}
}

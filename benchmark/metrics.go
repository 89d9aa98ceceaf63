package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Doc    string
}

// workloadDef names one workload and records why it is in the benchmark.
// Sensitivity is the share of the reference kernel's slowdown the workload
// sees when the core is shared (calib.go): fitted over twenty runs each
// beside whatever shared the host on the day (README, "Noise"). The closer
// a workload is to dense arithmetic, the closer to 1.
type workloadDef struct {
	Name        string
	Why         string
	Sensitivity float64
}

// Workload names.
const (
	wlFedKNOW = "fedknow_train"
	wlFedAvg  = "fedavg_wire_train"
	wlSparse  = "ingest_sparse"
	wlDense   = "ingest_dense_sharded"
)

// wlDurable is wlSparse with a checkpoint.Store snapshot sink. It is not one
// of the benchmark's workloads — its speed is the shared disk's, which no
// reference kernel vouches for, and ten runs of it spread by up to 28 % — but
// wlSparse's traced run repeats its job this way for the checkpoint layer.
const wlDurable = "ingest_sparse_durable"

// runSeconds is how long one run measures (BENCHMARK.json's run_seconds).
const runSeconds = 20

// workloads are the benchmark's four workloads, in reporting order.
var workloads = []workloadDef{
	{wlFedKNOW, "FedKNOW on MiniImageNet/ResNet18 over the loopback engine: tensor, nn and core (restore, QP, extract) do the work; codec, wire, shard and checkpoint do none", 0.5},
	{wlFedAvg, "FedAvg on the same data and model over TCP: core is bypassed, so a core change predicts no change here; the only real training over the wire and its dense codec path", 0.9},
	{wlSparse, "no training: closed-loop scripted peers upload sparse updates to an async server; decode, sparse fold, commit and broadcast do the work; its traced run repeats the job with the durable snapshot store", 0.75},
	{wlDense, "same server and peers with dense updates, a sharded fold and no disk: a sparse-path or snapshot gain predicts no change; a dense-path or per-shard cost shows here", 0.75},
}

// sensitivityOf is the workload's sensitivity.
func sensitivityOf(workload string) float64 {
	for _, w := range workloads {
		if w.Name == workload {
			return w.Sensitivity
		}
	}
	return 0
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, none is ever zero, and each has a bound.
//
// Every timing among them is taken between probes of a reference kernel and
// reported in reference-speed units (calib.go): the box shares its cores, and
// the same code runs up to 1.8 times slower whenever the sibling hardware
// thread is busy. Ten seeds spread (inter-quartile, as a share of the median)
// by 10–40 % as the clock read them beside a busy neighbour, and by 2–16 %
// calibrated (README, "Noise"). The bounds are max(the issue's starting
// value, 2 × the spread observed), capped at the contract's 0.25 — which is
// the cap for every timing. peak_rss_mb repeats within 1–4 % on three
// workloads and within 11 % on fedavg_wire_train (where the collector's
// timing decides whether the heap peaks at 83 or at 92 MiB), which puts it at
// the cap too.
//
// An "update" is one client upload accepted and folded by the server: one
// client-round of local training on the train workloads, one scripted upload
// on the ingest workloads. A "round" is what a client waits for: the gap
// between consecutive RoundDone events on the train workloads, a peer's
// Send start → receipt of the next committed global on the ingest workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median over the run's set-ups: dataset build + federate + models + engine, or listener + handshakes + precomputed updates + store open; excluded from every other metric"},
	{"updates_per_s", "1/s", "higher", 0.25, "updates accepted and folded per second of timed region (Server.Run / Engine.RunContext start → return); each segment of the job at the median of its repeats"},
	{"round_ms_p50", "ms", "lower", 0.25, "median round time, pooled over the run's jobs"},
	{"round_ms_p90", "ms", "lower", 0.25, "90th percentile of the same samples: on fedknow_train the task-boundary rounds (knowledge extraction + evaluation), on ingest the slow commits"},
	{"cpu_ms_per_update", "ms", "lower", 0.25, "process CPU time (user + system) spent in the timed regions per update: what the work costs when wall-clock hides fsync and network waits"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "the process's VmHWM at exit"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// tensor (probes on the workload's own shapes)
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Doc: "tensor.Gemm over the model's two largest conv-as-GEMM shapes and the head, FLOP-weighted"},
	{Name: "tensor.parallel_dispatch_ns", Unit: "ns", Better: "lower", Doc: "tensor.Parallel with an empty body at full width"},
	{Name: "tensor.parallel_allocs_per_call", Unit: "count", Better: "lower", Doc: "MemStats.Mallocs delta per tensor.Parallel call at full width"},
	{Name: "tensor.axpy_sparse_ns_per_nnz", Unit: "ns", Better: "lower", Doc: "tensor.AxpySparse per stored coordinate"},
	// nn / model / data
	{Name: "nn.forward_us", Unit: "us", Better: "lower", Doc: "Model.Forward, one training batch"},
	{Name: "nn.backward_us", Unit: "us", Better: "lower", Doc: "Model.Backward, one training batch"},
	{Name: "data.batch_us", Unit: "us", Better: "lower", Doc: "data.Batch, one training batch"},
	// core / qp / prune
	{Name: "core.restore_us_per_task", Unit: "us", Better: "lower", Doc: "GradientRestorer.PrepareTargets + RestoredGradients per restored task"},
	{Name: "core.select_signature_us", Unit: "us", Better: "lower", Doc: "GradientIntegrator.SelectSignature over every stored task's gradient"},
	{Name: "core.integrate_us", Unit: "us", Better: "lower", Doc: "GradientIntegrator.Integrate with K violated constraints"},
	{Name: "core.extract_us", Unit: "us", Better: "lower", Doc: "KnowledgeExtractor.Extract on the trained model"},
	{Name: "qp.integrate_us", Unit: "us", Better: "lower", Doc: "qp.Integrate with one violated constraint (the post-aggregation guard's shape)"},
	{Name: "prune.extract_us", Unit: "us", Better: "lower", Doc: "prune.Extract at rho = 0.10 on the flat parameters"},
	// fed client (Strategy decorator spans)
	{Name: "fed.client.train_step_us_p50", Unit: "us", Better: "lower", Doc: "Strategy.TrainStep"},
	{Name: "fed.client.train_step_us_p90", Unit: "us", Better: "lower", Doc: "Strategy.TrainStep"},
	{Name: "fed.client.train_step_count", Unit: "count", Better: "higher", Doc: "TrainStep calls in the traced job; exact"},
	{Name: "fed.client.after_aggregate_us_p50", Unit: "us", Better: "lower", Doc: "Strategy.AfterAggregate"},
	{Name: "fed.client.task_end_us_p50", Unit: "us", Better: "lower", Doc: "Strategy.TaskEnd"},
	{Name: "fed.client.train_share", Unit: "ratio", Better: "higher", Doc: "sum of TrainStep busy time / (wall × min(cohort, GOMAXPROCS))"},
	{Name: "fed.client.steps_per_s", Unit: "1/s", Better: "higher", Doc: "TrainStep calls per second of timed region"},
	{Name: "fed.client.fedknow_overhead_x", Unit: "x", Better: "lower", Doc: "traced TrainStep p50 over a plain FedAvg step on the same model and batch: the paper's training-time overhead"},
	// fed codec (probes on the workload's real payload)
	{Name: "fed.codec.encode_update_us", Unit: "us", Better: "lower", Doc: "Codec.Encode of one upload"},
	{Name: "fed.codec.decode_update_us", Unit: "us", Better: "lower", Doc: "Codec.Decode of one upload"},
	{Name: "fed.codec.encode_global_us", Unit: "us", Better: "lower", Doc: "Codec.Encode of one global model"},
	{Name: "fed.codec.decode_global_us", Unit: "us", Better: "lower", Doc: "Codec.Decode of one global model"},
	{Name: "fed.codec.update_bytes", Unit: "B", Better: "lower", Doc: "encoded upload frame; exact"},
	{Name: "fed.codec.global_bytes", Unit: "B", Better: "lower", Doc: "encoded global-model frame; exact"},
	{Name: "fed.wire.bytes_per_update", Unit: "B", Better: "lower", Doc: "sum over server links of BytesSent + BytesRecv per upload; exact"},
	// fed aggregator
	{Name: "fed.agg.accumulate_us_p50", Unit: "us", Better: "lower", Doc: "StreamAggregator.Accumulate (decorator)"},
	{Name: "fed.agg.accumulate_us_p99", Unit: "us", Better: "lower", Doc: "StreamAggregator.Accumulate (decorator)"},
	{Name: "fed.agg.finish_us_p50", Unit: "us", Better: "lower", Doc: "StreamAggregator.FinishRound (decorator)"},
	{Name: "fed.agg.accumulate_count", Unit: "count", Better: "higher", Doc: "folds in the traced job; exact"},
	{Name: "fed.agg.fold_us_per_update", Unit: "us", Better: "lower", Doc: "offline replay of one commit window through a bare SparseFedAvg, per update"},
	// shard (probes)
	{Name: "shard.fold_us_per_update", Unit: "us", Better: "lower", Doc: "Reducer fold at Shards = cohort"},
	{Name: "shard.single_fold_us_per_update", Unit: "us", Better: "lower", Doc: "the same fold through one shard"},
	{Name: "shard.merge_us", Unit: "us", Better: "lower", Doc: "Reducer.Merge at Shards = cohort"},
	// fed scheduler (server-side Transport decorator)
	{Name: "fed.sched.idle_share", Unit: "ratio", Better: "lower", Doc: "share of the timed region the server spent waiting for uploads"},
	{Name: "fed.sched.commit_us_p50", Unit: "us", Better: "lower", Doc: "window-closing upload received → first broadcast Send starts, minus snapshot time"},
	{Name: "fed.sched.commit_us_p99", Unit: "us", Better: "lower", Doc: "same samples"},
	{Name: "fed.sched.broadcast_us_p50", Unit: "us", Better: "lower", Doc: "first broadcast Send starts → last returns"},
	{Name: "fed.sched.commits", Unit: "count", Better: "higher", Doc: "global-model commits in the traced job; exact"},
	{Name: "fed.peer.commit_ms_p99", Unit: "ms", Better: "lower", Doc: "99th percentile of the peers' upload → next committed global latency (ingest only)"},
	// checkpoint
	{Name: "checkpoint.save_us_p50", Unit: "us", Better: "lower", Doc: "SnapshotSink.Save (decorator)"},
	{Name: "checkpoint.save_us_p99", Unit: "us", Better: "lower", Doc: "SnapshotSink.Save (decorator)"},
	{Name: "checkpoint.save_count", Unit: "count", Better: "lower", Doc: "durable cuts in the traced job; exact"},
	{Name: "checkpoint.saves_per_update", Unit: "ratio", Better: "lower", Doc: "durable cuts per accepted upload"},
	{Name: "checkpoint.bytes_per_save", Unit: "B", Better: "lower", Doc: "serialized snapshot size, averaged over the cuts taken"},
	{Name: "checkpoint.write_us", Unit: "us", Better: "lower", Doc: "WriteSnapshot to io.Discard; save minus this is the fsync/rename share"},
	{Name: "checkpoint.durable_updates_per_s", Unit: "1/s", Better: "higher", Doc: "updates per second of the durable repeat of the ingest_sparse job, as the clock read: beside the traced job's rate, what one Store.Save per upload costs"},
	// runtime and the trace itself
	{Name: "runtime.allocs_per_update", Unit: "count", Better: "lower", Doc: "MemStats.Mallocs delta over the untraced reference job per update"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Doc: "GC cycles during the untraced reference job"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Doc: "total GC pause during the untraced reference job"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Doc: "traced job wall over the untraced reference job's, minus one"},
	{Name: "trace.unaccounted_share", Unit: "ratio", Better: "lower", Doc: "share of the traced wall no leaf span and no scheduler idle accounts for"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Doc: "spans recorded in the traced job"},
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the metrics the program prints cannot drift apart.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering BENCHMARK.json: %w", err)
	}
	return append(out, '\n'), nil
}

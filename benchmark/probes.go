package main

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/prune"
	"repro/internal/qp"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// Probes are direct timed calls into a layer's public functions on the
// workload's own shapes (model, batch, payload, cohort). They run in the
// traced process after the timed region, so they can never disturb an
// end-to-end number.

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink any

// timeCalls returns the median time of one fn call in nanoseconds. inner
// calls are timed together per sample (for calls too short to time alone).
// It takes at least 20 samples and stops at 200 samples or once 300 ms have
// been spent, whichever comes first after the minimum.
func timeCalls(inner int, fn func()) float64 {
	fn() // warm caches and lazily sized buffers
	var samples []float64
	begin := time.Now()
	for len(samples) < 200 {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(inner))
		if len(samples) >= 20 && time.Since(begin) > 300*time.Millisecond {
			break
		}
	}
	return median(samples)
}

// probeTensorParallel measures tensor.Parallel's dispatch at the given width with
// an empty body: the per-call time, and the heap allocations per call from
// the MemStats.Mallocs delta (testing.AllocsPerRun would drop to
// GOMAXPROCS(1) and measure the width-1 fast path instead).
func probeTensorParallel(out map[string]float64, width int) {
	// The run keeps one kernel thread, where Parallel calls its body inline;
	// the pool's own cost shows only with workers to dispatch to.
	prev := tensor.KernelThreads()
	tensor.SetKernelThreads(width)
	defer tensor.SetKernelThreads(prev)
	body := func(lo, hi int) {}
	out["tensor.parallel_dispatch_ns"] = timeCalls(1000, func() { tensor.Parallel(width, body) })
	const calls = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		tensor.Parallel(width, body)
	}
	runtime.ReadMemStats(&after)
	out["tensor.parallel_allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / calls
}

// probeAxpySparse measures tensor.AxpySparse per stored coordinate.
func probeAxpySparse(out map[string]float64, sv *tensor.SparseVec) {
	dst := make([]float32, sv.N)
	ns := timeCalls(1, func() { tensor.AxpySparse(dst, 0.5, sv) })
	out["tensor.axpy_sparse_ns_per_nnz"] = ns / float64(sv.Len())
}

// gemmShape is one C(m×n) = A(m×k)·B(k×n) product the model performs.
type gemmShape struct{ m, k, n int }

// modelGemmShapes finds the model's two largest convolution GEMMs (per
// image: OutC/groups × fan-in × output positions) and its head (batch × in ×
// out), after one forward pass of the batch has sized the layers.
func modelGemmShapes(j *trainJob, x *tensor.Tensor) []gemmShape {
	m := j.build(tensor.NewRNG(j.seed))
	m.Forward(x, false)
	batch := x.Shape[0]
	type conv struct {
		flops float64
		s     gemmShape
	}
	var convs []conv
	var head *nn.Linear
	nn.Walk(m.Net, func(l nn.Layer) {
		switch l := l.(type) {
		case *nn.Conv2D:
			fanIn := l.InC / l.Groups * l.K * l.K
			spatial := int(l.FLOPs()/(2*float64(batch)*float64(l.OutC)*float64(fanIn)) + 0.5)
			convs = append(convs, conv{l.FLOPs(), gemmShape{l.OutC / l.Groups, fanIn, spatial}})
		case *nn.Linear:
			head = l
		}
	})
	sort.SliceStable(convs, func(a, b int) bool { return convs[a].flops > convs[b].flops })
	var shapes []gemmShape
	for i := 0; i < len(convs) && i < 2; i++ {
		shapes = append(shapes, convs[i].s)
	}
	if head != nil {
		shapes = append(shapes, gemmShape{batch, head.In, head.Out})
	}
	return shapes
}

// probeGemm measures tensor.Gemm over the given shapes and reports the
// FLOP-weighted rate: total FLOPs over total median time.
func probeGemm(out map[string]float64, shapes []gemmShape, seed uint64) {
	rng := tensor.NewRNG(seed ^ 0x6E44)
	var flops, ns float64
	for _, s := range shapes {
		a := make([]float32, s.m*s.k)
		b := make([]float32, s.k*s.n)
		c := make([]float32, s.m*s.n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		inner := 1
		if s.m*s.k*s.n < 1<<16 {
			inner = 16
		}
		ns += timeCalls(inner, func() { tensor.Gemm(c, a, b, s.m, s.k, s.n, false, false) })
		flops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
	}
	if ns > 0 {
		out["tensor.gemm_gflops"] = flops / ns // FLOP per ns = GFLOP/s
	}
}

// probeTrainLayers runs the tensor / nn / data / prune / qp probes every
// training workload shares, the plain-FedAvg step that is the denominator of
// the overhead figure, and — when withCore — the FedKNOW stage probes. It
// returns the plain step's median in microseconds.
func probeTrainLayers(out map[string]float64, j *trainJob, withCore bool) (fedavgStepUs float64) {
	rng := tensor.NewRNG(j.seed ^ 0xBE7C)
	ct := j.seqs[0][0]
	m := j.build(rng.Fork(1))
	batch := j.spec.batch
	if batch > len(ct.Train) {
		batch = len(ct.Train)
	}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	x, labels := data.Batch(ct.Train, idx, m.InC, m.InH, m.InW)
	params := m.Params()
	flat := nn.FlattenParams(params)

	probeTensorParallel(out, j.cohort)
	probeGemm(out, modelGemmShapes(j, x), j.seed)
	probeAxpySparse(out, prune.Extract(flat, 0.10))

	out["data.batch_us"] = timeCalls(16, func() {
		probeSink, _ = data.Batch(ct.Train, idx, m.InC, m.InH, m.InW)
	}) / 1e3
	var logits, dl *tensor.Tensor
	out["nn.forward_us"] = timeCalls(1, func() { logits = m.Forward(x, true) }) / 1e3
	_, dl = nn.MaskedCrossEntropy(logits, labels, ct.Classes)
	out["nn.backward_us"] = timeCalls(1, func() {
		nn.ZeroGrads(params)
		m.Backward(dl)
	}) / 1e3
	out["prune.extract_us"] = timeCalls(1, func() { probeSink = prune.Extract(flat, 0.10) }) / 1e3

	// A task gradient and constraints that violate it (negative dot product),
	// so the QP actually runs: each is −g plus its own noise.
	g := nn.FlattenGrads(params)
	violated := func(k int) [][]float32 {
		cs := make([][]float32, k)
		for i := range cs {
			c := make([]float32, len(g))
			rng.FillNorm(c, 1e-3)
			tensor.AxpySlice(c, -1, g)
			cs[i] = c
		}
		return cs
	}
	one := violated(1)
	out["qp.integrate_us"] = timeCalls(1, func() { probeSink = qp.Integrate(g, one) }) / 1e3

	ctx := &fed.ClientCtx{ID: 0, NumClients: j.cohort, Model: m,
		Opt: opt.NewSGD(opt.Inv{Base: j.cfg.LR, Decay: j.cfg.LRDecay}, 0, 0),
		RNG: rng.Fork(2), NumClasses: j.cfg.NumClasses}
	plain := baselines.NewFedAvg(ctx)
	fedavgStepUs = timeCalls(1, func() { plain.TrainStep(x, labels, ct.Classes) }) / 1e3

	if !withCore {
		return fedavgStepUs
	}
	// K mirrors the CI-scale FedKNOW options experiments.MethodFactory uses
	// (they are not exported): three signature tasks integrated per step.
	const k = 3
	extractor := core.NewKnowledgeExtractor(core.DefaultOptions().Rho)
	out["core.extract_us"] = timeCalls(1, func() {
		probeSink = extractor.Extract(m, ct, rng)
	}) / 1e3
	// Five stored tasks: more than K, so signature selection has to rank.
	var ks []*core.TaskKnowledge
	for t := 0; t < k+2 && t < len(j.seqs[0]); t++ {
		ks = append(ks, extractor.Extract(m, j.seqs[0][t], rng))
	}
	if len(ks) > k {
		restorer := core.NewGradientRestorer(m)
		integrator := core.NewGradientIntegrator()
		var restoreNs []float64
		for rep := 0; rep < 21; rep++ {
			t0 := time.Now()
			restorer.PrepareTargets(ks[:k], x)
			prep := time.Since(t0)
			live := m.Forward(x, true) // the task-loss forward training does anyway
			t1 := time.Now()
			probeSink = restorer.RestoredGradients(ks[:k], live)
			if rep > 0 { // the first call sizes the buffers
				restoreNs = append(restoreNs, float64(prep+time.Since(t1))/float64(k))
			}
		}
		out["core.restore_us_per_task"] = median(restoreNs) / 1e3
		restorer.PrepareTargets(ks, x)
		all := restorer.RestoredGradients(ks, m.Forward(x, true))
		out["core.select_signature_us"] = timeCalls(1, func() {
			probeSink = integrator.SelectSignature(g, all, k)
		}) / 1e3
		cs := violated(k)
		out["core.integrate_us"] = timeCalls(1, func() { probeSink = integrator.Integrate(g, cs) }) / 1e3
	}
	return fedavgStepUs
}

// probeCodec measures the wire codec on the workload's real payloads: one
// upload and one global model.
func probeCodec(out map[string]float64, up *fed.Update, global []float32) {
	codec := fed.NewCodec(fed.Compression{})
	var buf bytes.Buffer
	frame := func(m fed.Msg) []byte {
		buf.Reset()
		if err := codec.Encode(&buf, m); err != nil {
			return nil
		}
		return append([]byte(nil), buf.Bytes()...)
	}
	gm := &fed.GlobalModel{Params: global, Version: 1}
	upFrame, gmFrame := frame(up), frame(gm)
	out["fed.codec.update_bytes"] = float64(len(upFrame))
	out["fed.codec.global_bytes"] = float64(len(gmFrame))
	enc := func(m fed.Msg) float64 {
		return timeCalls(1, func() {
			buf.Reset()
			_ = codec.Encode(&buf, m) // a bytes.Buffer write cannot fail
		}) / 1e3
	}
	dec := func(fr []byte) float64 {
		rd := bytes.NewReader(fr)
		return timeCalls(1, func() {
			rd.Reset(fr)
			probeSink, _ = codec.Decode(rd)
		}) / 1e3
	}
	out["fed.codec.encode_update_us"] = enc(up)
	out["fed.codec.decode_update_us"] = dec(upFrame)
	out["fed.codec.encode_global_us"] = enc(gm)
	out["fed.codec.decode_global_us"] = dec(gmFrame)
}

// probeFold measures one commit window of the workload's updates three
// ways: through a bare SparseFedAvg (the offline replay that stands in for
// the aggregator decorator on the durable workload), through a shard.Reducer
// at Shards = cohort, and through a one-shard Reducer beside it.
func probeFold(out map[string]float64, ups []fed.Update, cohort int) {
	agg := &fed.SparseFedAvg{}
	perWindow := timeCalls(1, func() {
		agg.BeginRound()
		for i := range ups {
			u := ups[i]
			agg.Accumulate(&u)
		}
		probeSink = agg.FinishRound()
	})
	out["fed.agg.fold_us_per_update"] = perWindow / float64(len(ups)) / 1e3

	fold := func(r *shard.Reducer) float64 {
		return timeCalls(1, func() {
			r.BeginRound()
			for i := range ups {
				if ups[i].Sparse != nil {
					r.FoldSparse(1, ups[i].Sparse)
				} else {
					r.FoldDense(1, ups[i].Params)
				}
			}
		}) / float64(len(ups)) / 1e3
	}
	sharded, single := shard.NewReducer(cohort), shard.NewReducer(1)
	out["shard.fold_us_per_update"] = fold(sharded)
	out["shard.single_fold_us_per_update"] = fold(single)
	// A Merge needs a folded round before it, which must not be timed with it.
	scale := 1 / float32(len(ups))
	var mergeNs []float64
	for rep := 0; rep < 50; rep++ {
		sharded.BeginRound()
		for i := range ups {
			if ups[i].Sparse != nil {
				sharded.FoldSparse(1, ups[i].Sparse)
			} else {
				sharded.FoldDense(1, ups[i].Params)
			}
		}
		t0 := time.Now()
		probeSink = sharded.Merge(scale)
		mergeNs = append(mergeNs, float64(time.Since(t0)))
	}
	out["shard.merge_us"] = median(mergeNs) / 1e3
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

// Write counts and discards.
func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// probeCheckpoint replays the snapshots the traced job captured: their
// serialized size (weighted by how many cuts of each kind the job took) and
// the time WriteSnapshot needs with no disk behind it. Save minus write_us
// is what the temp file, fsync, rename and directory sync cost.
func probeCheckpoint(out map[string]float64, sink *tracedSink) {
	var bytesSum, writeSum, cuts float64
	for _, c := range []struct {
		snap  *checkpoint.ServerSnapshot
		count int
	}{{sink.midWindow, sink.midCount}, {sink.commit, sink.comCount}} {
		if c.snap == nil || c.count == 0 {
			continue
		}
		var cw countingWriter
		if err := checkpoint.WriteSnapshot(&cw, c.snap); err != nil {
			continue
		}
		us := timeCalls(1, func() { _ = checkpoint.WriteSnapshot(io.Discard, c.snap) }) / 1e3
		bytesSum += float64(cw.n) * float64(c.count)
		writeSum += us * float64(c.count)
		cuts += float64(c.count)
	}
	if cuts > 0 {
		out["checkpoint.bytes_per_save"] = bytesSum / cuts
		out["checkpoint.write_us"] = writeSum / cuts
	}
}

package core

import (
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Options configure the FedKNOW client.
type Options struct {
	// Rho is the fraction of weights retained as task knowledge (paper
	// default 10 %, searched over {5 %, 10 %, 20 %}).
	Rho float64
	// K is the number of signature-task gradients integrated per iteration
	// (paper default 10, searched over {5, 10, 20}).
	K int
	// FinetuneIters is the number of local fine-tuning iterations after
	// each global aggregation (the paper fine-tunes one epoch; CI scale
	// uses a few batches).
	FinetuneIters int
	// SelectEvery controls how often the signature set is re-ranked: the
	// restorer reconstructs every stored task's gradient on iteration 0 of
	// each round to pick the k signature tasks, then only the selected k
	// are restored per iteration ("only the selected k gradients are
	// calculated to save computational costs", §III-C).
	SelectEvery int
	// DisableIntegration ablates the gradient integrator: knowledge is
	// still extracted, but training steps ignore past-task constraints
	// (isolates the integrator's contribution in ablation benches).
	DisableIntegration bool
	// DisableGlobalGuard ablates the negative-transfer guard: the
	// post-aggregation fine-tune runs without the pre-aggregation gradient
	// constraint.
	DisableGlobalGuard bool
}

// DefaultOptions mirror §V-B.
func DefaultOptions() Options {
	return Options{Rho: 0.10, K: 10, FinetuneIters: 2, SelectEvery: 5}
}

// FedKNOW is the client-side strategy: extractor + restorer + integrator
// wired into the federated engine's hook points.
type FedKNOW struct {
	fed.BaseStrategy
	ctx  *fed.ClientCtx
	opts Options

	extractor  *KnowledgeExtractor
	restorer   *GradientRestorer
	integrator *GradientIntegrator

	knowledge []*TaskKnowledge
	signature []int // indices into knowledge, re-ranked every SelectEvery steps
	step      int

	// per-iteration scratch, reused to keep the training loop allocation-free
	gBuf        []float32
	gaBuf       []float32
	gbBuf       []float32
	curBuf      []float32
	dlBuf       *tensor.Tensor   // task-loss logit gradient
	restoreBuf  []*TaskKnowledge // the signature tasks restored this step
	constraints [][]float32      // their restored gradients, in signature order

	// Stats accumulates integration diagnostics for the current task;
	// TaskEnd moves them into StatsByTask.
	Stats       IntegrationStats
	StatsByTask []IntegrationStats
}

// IntegrationStats summarises what the gradient integrator did.
type IntegrationStats struct {
	Steps      int     // TrainStep calls with stored knowledge
	QPRuns     int     // steps where at least one constraint was violated
	CosSum     float64 // Σ cos(g′, g) over constrained steps
	NormRatioS float64 // Σ ‖g′‖/‖g‖ over constrained steps
}

// MeanCos is the average alignment of the integrated gradient with the task
// gradient.
func (s IntegrationStats) MeanCos() float64 {
	if s.Steps == 0 {
		return 1
	}
	return s.CosSum / float64(s.Steps)
}

// ResetStats clears the counters.
func (f *FedKNOW) ResetStats() { f.Stats = IntegrationStats{} }

// New builds a FedKNOW client strategy.
func New(ctx *fed.ClientCtx, opts Options) *FedKNOW {
	if opts.SelectEvery <= 0 {
		opts.SelectEvery = 5
	}
	return &FedKNOW{
		ctx:        ctx,
		opts:       opts,
		extractor:  NewKnowledgeExtractor(opts.Rho),
		restorer:   NewGradientRestorer(ctx.Model),
		integrator: NewGradientIntegrator(),
	}
}

// Factory adapts New to the engine's factory signature.
func Factory(opts Options) fed.Factory {
	return func(ctx *fed.ClientCtx) fed.Strategy { return New(ctx, opts) }
}

// Name identifies the method.
func (f *FedKNOW) Name() string { return "FedKNOW" }

// Knowledge exposes the retained signature-task knowledge (for tests and
// diagnostics).
func (f *FedKNOW) Knowledge() []*TaskKnowledge { return f.knowledge }

// TrainStep implements catastrophic-forgetting prevention (§III-A): the
// current gradient is integrated with the restored gradients of the k most
// dissimilar past tasks before the optimiser step.
//
// The knowledge-model forwards run first, so the task-loss forward and all
// distillation backwards share one live forward pass over the batch.
func (f *FedKNOW) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	m := f.ctx.Model
	params := m.Params()
	restoring := len(f.knowledge) > 0 && !f.opts.DisableIntegration
	var restoreSet []*TaskKnowledge
	var reRanking bool
	if restoring {
		restoreSet, reRanking = f.restoreSet()
		f.restorer.PrepareTargets(restoreSet, x)
	}

	logits := m.Forward(x, true)
	loss, dl := nn.MaskedCrossEntropyInto(f.dlBuf, logits, labels, classes)
	f.dlBuf = dl
	nn.ZeroGrads(params)
	m.Backward(dl)
	f.gBuf = nn.FlattenGradsInto(f.gBuf, params)
	g := f.gBuf

	if restoring {
		restored := f.restorer.RestoredGradients(restoreSet, logits)
		constraints := restored
		if reRanking {
			f.signature = f.integrator.SelectSignature(g, restored, f.opts.K)
			f.constraints = f.constraints[:0]
			for _, j := range f.signature {
				f.constraints = append(f.constraints, restored[j])
			}
			constraints = f.constraints
		}
		g2 := f.integrator.Integrate(g, constraints)
		f.Stats.Steps++
		if &g2[0] != &g[0] {
			f.Stats.QPRuns++
		}
		f.Stats.CosSum += stats.CosineSimilarity(g2, g)
		ng := tensor.NormSlice(g)
		if ng > 0 {
			f.Stats.NormRatioS += tensor.NormSlice(g2) / ng
		}
		nn.SetFlatGrads(params, g2)
	}
	f.ctx.Opt.Step(params)
	f.step++
	return loss
}

// restoreSet picks which stored tasks to restore this step: all of them when
// the store is small or the signature set is being re-ranked (§III-C:
// re-ranking needs every stored task's gradient), otherwise the cached
// signature tasks only.
func (f *FedKNOW) restoreSet() (ks []*TaskKnowledge, reRanking bool) {
	k := f.opts.K
	if k >= len(f.knowledge) {
		return f.knowledge, false
	}
	if f.signature == nil || f.step%f.opts.SelectEvery == 0 {
		return f.knowledge, true
	}
	f.restoreBuf = f.restoreBuf[:0]
	for _, j := range f.signature {
		f.restoreBuf = append(f.restoreBuf, f.knowledge[j])
	}
	return f.restoreBuf, false
}

// AfterAggregate implements negative-transfer prevention (§III-A): after the
// global model is installed, the client fine-tunes on local data, and each
// fine-tuning gradient (the post-aggregation direction) is integrated with
// the gradient computed at the pre-aggregation weights so the update keeps
// an acute angle with both.
func (f *FedKNOW) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	if f.opts.FinetuneIters <= 0 || len(ct.Train) == 0 {
		return
	}
	m := f.ctx.Model
	params := m.Params()
	batch := 16
	if batch > len(ct.Train) {
		batch = len(ct.Train)
	}
	for it := 0; it < f.opts.FinetuneIters; it++ {
		idx := f.ctx.RNG.Perm(len(ct.Train))[:batch]
		x, labels := data.Batch(ct.Train, idx, m.InC, m.InH, m.InW)

		// gᵃ: gradient at the aggregated (current) weights.
		logits := m.Forward(x, true)
		_, f.dlBuf = nn.MaskedCrossEntropyInto(f.dlBuf, logits, labels, ct.Classes)
		nn.ZeroGrads(params)
		m.Backward(f.dlBuf)
		f.gaBuf = nn.FlattenGradsInto(f.gaBuf, params)
		gAfter := f.gaBuf

		// gᵇ: gradient at the pre-aggregation weights on the same batch.
		f.curBuf = nn.FlattenParamsInto(f.curBuf, params)
		nn.SetFlatParams(params, preAgg)
		logitsB := m.Forward(x, true)
		_, f.dlBuf = nn.MaskedCrossEntropyInto(f.dlBuf, logitsB, labels, ct.Classes)
		nn.ZeroGrads(params)
		m.Backward(f.dlBuf)
		f.gbBuf = nn.FlattenGradsInto(f.gbBuf, params)
		gBefore := f.gbBuf
		nn.SetFlatParams(params, f.curBuf)

		g2 := gAfter
		if !f.opts.DisableGlobalGuard {
			g2 = f.integrator.Integrate(gAfter, [][]float32{gBefore})
		}
		nn.SetFlatGrads(params, g2)
		f.ctx.Opt.Step(params)
	}
}

// TaskEnd extracts and stores the finished task's signature knowledge.
func (f *FedKNOW) TaskEnd(ct data.ClientTask) {
	k := f.extractor.Extract(f.ctx.Model, ct, f.ctx.RNG)
	f.knowledge = append(f.knowledge, k)
	f.signature = nil
	f.StatsByTask = append(f.StatsByTask, f.Stats)
	f.ResetStats()
}

// MemoryBytes charges the sparse knowledge stores against device memory.
func (f *FedKNOW) MemoryBytes() int {
	total := 0
	for _, k := range f.knowledge {
		total += k.Store.Bytes()
	}
	return total
}

// OverheadFLOPs accounts the restored-gradient computation: each restored
// gradient costs ≈ one extra forward (knowledge model) plus one
// forward+backward (distillation) = 3 forward-equivalents × batch.
func (f *FedKNOW) OverheadFLOPs() float64 {
	k := f.opts.K
	if k > len(f.knowledge) {
		k = len(f.knowledge)
	}
	return float64(k) * 3 * f.ctx.Model.FLOPsPerSample() * 16
}

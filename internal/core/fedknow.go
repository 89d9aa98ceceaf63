package core

import (
	"math"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/qp"
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
	// ExtractFinetuneIters is the number of masked fine-tuning iterations
	// the knowledge extractor runs on a finished task's retained weights
	// (§III-B step 3). Zero keeps the extractor's default, 10; a negative
	// value skips the step.
	ExtractFinetuneIters int
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
	dlBuf       *tensor.Tensor   // task-loss logit gradient
	restoreBuf  []*TaskKnowledge // the signature tasks restored this step
	constraints [][]float32      // their restored gradients, in signature order

	// Stats accumulates integration diagnostics for the current task;
	// TaskEnd moves them into StatsByTask.
	Stats       IntegrationStats
	StatsByTask []IntegrationStats
}

// IntegrationStats summarises what the gradient integrator did. Both sums
// run over every step with stored knowledge: a step whose g satisfies every
// constraint adds cos(g′, g) = 1 and ‖g′‖/‖g‖ = 1, a step with g = 0 adds
// nothing, and a degenerate solve (g′ = 0) adds 0 to both. They come from the
// integrator's Outcome, with no pass over the gradients.
//
// GuardRuns and GuardFires count the negative-transfer guard in
// AfterAggregate: every guarded fine-tune step, and those whose gᵃ conflicted
// with gᵇ (gᵃ·gᵇ < 0, so the integrator fired). Both stay 0 under
// DisableGlobalGuard.
type IntegrationStats struct {
	Steps      int     // TrainStep calls with stored knowledge
	QPRuns     int     // steps where at least one constraint was violated
	Converged  int     // QP runs whose dual solve reached its KKT point
	Degenerate int     // QP runs whose constraint cone was its apex
	CosSum     float64 // Σ cos(g′, g) over Steps
	NormRatioS float64 // Σ ‖g′‖/‖g‖ over Steps
	GuardRuns  int     // guarded post-aggregation fine-tune steps
	GuardFires int     // guarded steps where the integrator fired
}

// add counts one TrainStep's integration from its outcome.
func (s *IntegrationStats) add(o qp.Outcome) {
	s.Steps++
	if !o.Fired {
		if o.GG > 0 {
			s.CosSum++
			s.NormRatioS++
		}
		return
	}
	s.QPRuns++
	if o.Converged {
		s.Converged++
	}
	if o.Degenerate {
		s.Degenerate++
	}
	if o.GG > 0 && o.OutOut > 0 {
		s.CosSum += o.GOut / math.Sqrt(o.GG*o.OutOut)
	}
	if o.GG > 0 {
		s.NormRatioS += math.Sqrt(o.OutOut / o.GG)
	}
}

// ResetStats clears the counters.
func (f *FedKNOW) ResetStats() { f.Stats = IntegrationStats{} }

// New builds a FedKNOW client strategy.
func New(ctx *fed.ClientCtx, opts Options) *FedKNOW {
	if opts.SelectEvery <= 0 {
		opts.SelectEvery = 5
	}
	extractor := NewKnowledgeExtractor(opts.Rho)
	switch {
	case opts.ExtractFinetuneIters > 0:
		extractor.FinetuneIters = opts.ExtractFinetuneIters
	case opts.ExtractFinetuneIters < 0:
		extractor.FinetuneIters = 0
	}
	return &FedKNOW{
		ctx:        ctx,
		opts:       opts,
		extractor:  extractor,
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
	clear(m.Grads())
	m.Backward(dl)
	f.gBuf = append(f.gBuf[:0], m.Grads()...)
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
		f.Stats.add(f.integrator.Outcome())
		m.SetGrads(g2)
	}
	f.ctx.Opt.Step(m.Weights(), m.Grads())
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
// an acute angle with both. The gᵇ pass runs on the borrowed model and only
// when the guard is on; either way the live running statistics see the
// fine-tune's own forwards and nothing else.
func (f *FedKNOW) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	if f.opts.FinetuneIters <= 0 || len(ct.Train) == 0 {
		return
	}
	m := f.ctx.Model
	batch := min(16, len(ct.Train))
	for it := 0; it < f.opts.FinetuneIters; it++ {
		idx := f.ctx.RNG.Perm(len(ct.Train))[:batch]
		x, labels := data.Batch(ct.Train, idx, m.InC, m.InH, m.InW)

		// gᵃ: gradient at the aggregated (current) weights.
		logits := m.Forward(x, true)
		_, f.dlBuf = nn.MaskedCrossEntropyInto(f.dlBuf, logits, labels, ct.Classes)
		clear(m.Grads())
		m.Backward(f.dlBuf)
		f.gaBuf = append(f.gaBuf[:0], m.Grads()...)

		g2 := f.gaBuf
		if !f.opts.DisableGlobalGuard {
			// gᵇ: gradient at the pre-aggregation weights on the same batch,
			// on the borrowed model, so its batch statistics stay out of the
			// live running statistics.
			m.Borrow(func() {
				m.SetWeights(preAgg)
				logitsB := m.Forward(x, true)
				_, f.dlBuf = nn.MaskedCrossEntropyInto(f.dlBuf, logitsB, labels, ct.Classes)
				clear(m.Grads())
				m.Backward(f.dlBuf)
				f.gbBuf = append(f.gbBuf[:0], m.Grads()...)
			})
			g2 = f.integrator.Integrate(f.gaBuf, [][]float32{f.gbBuf})
			f.Stats.GuardRuns++
			if f.integrator.Outcome().Fired {
				f.Stats.GuardFires++
			}
		}
		m.SetGrads(g2)
		f.ctx.Opt.Step(m.Weights(), m.Grads())
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

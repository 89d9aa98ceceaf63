package baselines

import (
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/tensor"
)

// regularized is the shared skeleton of the importance-regularisation family
// (EWC, MAS, AGS-CL): an importance vector Ω and an anchor w* accumulated at
// task boundaries, with the penalty gradient λ·Ω⊙(w − w*) added to every
// step.
type regularized struct {
	fed.BaseStrategy
	ctx        *fed.ClientCtx
	name       string
	Lambda     float64
	importance []float32
	anchor     []float32
	estimate   func(ct data.ClientTask) // fills importance at task end
	freezeTop  float64                  // AGS-CL: fraction of weights frozen
	frozen     []bool
}

// Name identifies the method.
func (s *regularized) Name() string { return s.name }

// TrainStep adds the importance penalty to the task gradient before the
// optimiser step; AGS-CL additionally freezes its most important weights.
func (s *regularized) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	loss := plainGrad(s.ctx, x, labels, classes)
	w, g := s.ctx.Model.Weights(), s.ctx.Model.Grads()
	if s.anchor != nil {
		lam := float32(s.Lambda)
		for i := range w {
			g[i] += lam * s.importance[i] * (w[i] - s.anchor[i])
		}
	}
	var inv []bool
	if s.frozen != nil {
		inv = make([]bool, len(s.frozen))
		for i, f := range s.frozen {
			inv[i] = !f
		}
	}
	s.ctx.Opt.StepMasked(w, g, inv)
	return loss
}

// TaskEnd re-estimates importance and re-anchors.
func (s *regularized) TaskEnd(ct data.ClientTask) {
	if s.importance == nil {
		s.importance = make([]float32, s.ctx.Model.NumParams())
	}
	s.estimate(ct)
	// Normalise importance to unit maximum so the penalty strength is
	// governed by λ alone; raw accumulated Fisher/sensitivity magnitudes
	// grow with task count and would otherwise blow up the update.
	var maxImp float32
	for _, v := range s.importance {
		if v > maxImp {
			maxImp = v
		}
	}
	if maxImp > 0 {
		inv := 1 / maxImp
		for i := range s.importance {
			s.importance[i] *= inv
		}
	}
	s.anchor = append(s.anchor[:0], s.ctx.Model.Weights()...)
	if s.freezeTop > 0 {
		s.frozen = topFractionMask(s.importance, s.freezeTop)
	}
}

// MemoryBytes charges the importance and anchor vectors.
func (s *regularized) MemoryBytes() int {
	return len(s.importance)*4 + len(s.anchor)*4
}

// OverheadFLOPs charges the penalty computation (linear in parameters) plus
// the task-end estimation amortised per step; the dominant term is the
// penalty, approximated by one parameter pass.
func (s *regularized) OverheadFLOPs() float64 {
	return float64(len(s.importance)) * 3
}

// topFractionMask marks the top `frac` fraction of entries by value.
func topFractionMask(importance []float32, frac float64) []bool {
	n := len(importance)
	k := int(float64(n) * frac)
	if k <= 0 {
		return make([]bool, n)
	}
	// Threshold via a coarse histogram-free selection: copy and partial
	// sort would be O(n log n); n is small enough here.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	quickSelectDesc(idx, importance, k)
	mask := make([]bool, n)
	for _, i := range idx[:k] {
		mask[i] = true
	}
	return mask
}

// quickSelectDesc partially orders idx so the k largest-importance indices
// occupy idx[:k].
func quickSelectDesc(idx []int, val []float32, k int) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		p := val[idx[(lo+hi)/2]]
		i, j := lo, hi
		for i <= j {
			for val[idx[i]] > p {
				i++
			}
			for val[idx[j]] < p {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// NewEWC builds elastic weight consolidation [24]: importance is the
// diagonal Fisher information, estimated from squared task gradients. The
// paper's search found λ = 40000 (§V-B); scaled to the synthetic substrate.
func NewEWC(ctx *fed.ClientCtx) fed.Strategy {
	s := &regularized{ctx: ctx, name: "EWC", Lambda: 100}
	s.estimate = func(ct data.ClientTask) { fisherEstimate(s, ct, true) }
	return s
}

// NewMAS builds memory-aware synapses [2]: importance is the sensitivity of
// the squared output norm to each weight, |∂‖f‖²/∂w|.
func NewMAS(ctx *fed.ClientCtx) fed.Strategy {
	s := &regularized{ctx: ctx, name: "MAS", Lambda: 50}
	s.estimate = func(ct data.ClientTask) { masEstimate(s, ct) }
	return s
}

// NewAGSCL builds adaptive group-sparsity continual learning [19],
// simplified to its load-bearing mechanism for this comparison: importance-
// weighted regularisation plus hard freezing of the most important weight
// group when a task finishes. (The original's proximal group-lasso operator
// needs per-node groups; freezing the top fraction reproduces the "frozen
// capacity grows with tasks" behaviour the paper discusses.)
func NewAGSCL(ctx *fed.ClientCtx) fed.Strategy {
	s := &regularized{ctx: ctx, name: "AGS-CL", Lambda: 200, freezeTop: 0.05}
	s.estimate = func(ct data.ClientTask) { fisherEstimate(s, ct, false) }
	return s
}

// fisherEstimate accumulates squared (or absolute) gradients over a few
// batches of the finished task.
func fisherEstimate(s *regularized, ct data.ClientTask, squared bool) {
	m := s.ctx.Model
	if len(ct.Train) == 0 {
		return
	}
	const batches = 2
	for b := 0; b < batches; b++ {
		x, labels := batchFrom(s.ctx.RNG, ct.Train, 16, m.InC, m.InH, m.InW)
		plainGrad(s.ctx, x, labels, ct.Classes)
		for j, g := range m.Grads() {
			if squared {
				s.importance[j] += g * g
			} else {
				s.importance[j] += abs32(g)
			}
		}
	}
}

// masEstimate accumulates |∂‖f(x)‖²/∂w|.
func masEstimate(s *regularized, ct data.ClientTask) {
	m := s.ctx.Model
	if len(ct.Train) == 0 {
		return
	}
	x, _ := batchFrom(s.ctx.RNG, ct.Train, 16, m.InC, m.InH, m.InW)
	logits := m.Forward(x, true)
	// d‖f‖²/dlogits = 2·logits (normalised by batch size).
	dl := logits.Clone()
	dl.ScaleInPlace(2 / float32(logits.Shape[0]))
	clear(m.Grads())
	m.Backward(dl)
	for j, g := range m.Grads() {
		s.importance[j] += abs32(g)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

package baselines

import (
	"slices"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/qp"
	"repro/internal/tensor"
)

// GEM is gradient episodic memory [35]: a fraction of every finished task's
// samples is retained; each training step computes the retained tasks'
// gradients on their memories and projects the current gradient through the
// same dual QP FedKNOW uses so no past task's loss increases.
type GEM struct {
	fed.BaseStrategy
	ctx *fed.ClientCtx
	// MemFrac is the retained fraction of each task's training samples
	// (paper setting: 10 %; Fig. 10 sweeps 10–100 %).
	MemFrac     float64
	memories    [][]data.Sample
	memClass    [][]int
	constraints [][]float32  // this step's memory gradients
	ws          qp.Workspace // the QP's buffers; g′ is installed at once
}

// NewGEM builds the strategy at the paper's 10 % memory setting.
func NewGEM(ctx *fed.ClientCtx) fed.Strategy { return NewGEMFrac(ctx, 0.10) }

// NewGEMFrac builds GEM with an explicit memory fraction.
func NewGEMFrac(ctx *fed.ClientCtx, frac float64) fed.Strategy {
	return &GEM{ctx: ctx, MemFrac: frac}
}

// Name identifies the method.
func (s *GEM) Name() string { return "GEM" }

// TrainStep projects the current gradient against every memory task's
// gradient.
func (s *GEM) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	m := s.ctx.Model
	loss := plainGrad(s.ctx, x, labels, classes)
	if len(s.memories) > 0 {
		g := slices.Clone(m.Grads())
		s.constraints = s.constraints[:0]
		for ti, mem := range s.memories {
			if len(mem) == 0 {
				continue
			}
			mx, mlabels := batchFrom(s.ctx.RNG, mem, 8, m.InC, m.InH, m.InW)
			plainGrad(s.ctx, mx, mlabels, s.memClass[ti])
			s.constraints = append(s.constraints, slices.Clone(m.Grads()))
		}
		m.SetGrads(s.ws.Integrate(g, s.constraints))
	}
	step(s.ctx)
	return loss
}

// TaskEnd stores a fraction of the finished task's samples.
func (s *GEM) TaskEnd(ct data.ClientTask) {
	n := int(float64(len(ct.Train))*s.MemFrac + 0.5)
	if n < 1 {
		n = 1
	}
	s.memories = append(s.memories, reservoir(s.ctx.RNG, ct.Train, n))
	s.memClass = append(s.memClass, ct.Classes)
}

// MemoryBytes charges the episodic memory.
func (s *GEM) MemoryBytes() int {
	total := 0
	for _, mem := range s.memories {
		total += sampleBytes(mem)
	}
	return total
}

// OverheadFLOPs charges one forward+backward per memory task per step.
func (s *GEM) OverheadFLOPs() float64 {
	return float64(len(s.memories)) * 3 * s.ctx.Model.FLOPsPerSample() * 16
}

// BCN is balanced continual learning [42], reduced to its rehearsal core:
// every step trains on a joint batch of current-task samples and an equal
// number of class-balanced memory samples, so the optimisation sees a
// stationary mixture of all distributions. (The original's bi-level
// generalisation/forgetting solver is replaced by the balanced mixture it
// ultimately produces.)
type BCN struct {
	fed.BaseStrategy
	ctx      *fed.ClientCtx
	MemFrac  float64
	memories []data.Sample
	memClass []int
}

// NewBCN builds the strategy at the 10 % retention setting of §V-B.
func NewBCN(ctx *fed.ClientCtx) fed.Strategy { return &BCN{ctx: ctx, MemFrac: 0.10} }

// Name identifies the method.
func (s *BCN) Name() string { return "BCN" }

// TrainStep mixes a balanced memory batch into the current batch.
func (s *BCN) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	m := s.ctx.Model
	loss := plainGrad(s.ctx, x, labels, classes)
	if len(s.memories) > 0 {
		g := slices.Clone(m.Grads())
		mx, mlabels := batchFrom(s.ctx.RNG, s.memories, x.Shape[0], m.InC, m.InH, m.InW)
		plainGrad(s.ctx, mx, mlabels, s.memClass)
		// Equal-weight mixture of the two gradients.
		mg := m.Grads()
		for i := range g {
			mg[i] = 0.5 * (g[i] + mg[i])
		}
	}
	step(s.ctx)
	return loss
}

// TaskEnd retains a balanced sample of the finished task.
func (s *BCN) TaskEnd(ct data.ClientTask) {
	n := int(float64(len(ct.Train))*s.MemFrac + 0.5)
	if n < 1 {
		n = 1
	}
	s.memories = append(s.memories, reservoir(s.ctx.RNG, ct.Train, n)...)
	s.memClass = classesOf(s.memories)
}

// MemoryBytes charges the rehearsal buffer.
func (s *BCN) MemoryBytes() int { return sampleBytes(s.memories) }

// OverheadFLOPs charges the extra rehearsal batch.
func (s *BCN) OverheadFLOPs() float64 {
	if len(s.memories) == 0 {
		return 0
	}
	return 3 * s.ctx.Model.FLOPsPerSample() * 16
}

// Co2L is contrastive continual learning [3], reduced to its
// representation-preservation core: alongside rehearsal, each step distills
// the previous task model's soft predictions on the current batch into the
// live model (instance-wise relation preservation), which is what protects
// the learned features. (The original's supervised-contrastive head is
// replaced by distillation, its asymptotic effect.)
type Co2L struct {
	fed.BaseStrategy
	ctx      *fed.ClientCtx
	MemFrac  float64
	Distill  float64 // distillation weight λ
	memories []data.Sample
	memClass []int
	prev     []float32 // previous-task model snapshot
}

// NewCo2L builds the strategy.
func NewCo2L(ctx *fed.ClientCtx) fed.Strategy {
	return &Co2L{ctx: ctx, MemFrac: 0.10, Distill: 0.5}
}

// Name identifies the method.
func (s *Co2L) Name() string { return "Co2L" }

// TrainStep adds the distillation gradient from the snapshot model plus a
// rehearsal gradient.
func (s *Co2L) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	m := s.ctx.Model
	loss := plainGrad(s.ctx, x, labels, classes)
	g := slices.Clone(m.Grads())
	if s.prev != nil {
		// Snapshot predictions as distillation targets.
		var targets *tensor.Tensor
		m.Borrow(func() {
			m.SetWeights(s.prev)
			targets = nn.Softmax(m.Forward(x, false))
		})
		logits := m.Forward(x, true)
		_, dl := nn.SoftCrossEntropy(logits, targets)
		clear(m.Grads())
		m.Backward(dl)
		lam := float32(s.Distill)
		for i, dg := range m.Grads() {
			g[i] += lam * dg
		}
	}
	if len(s.memories) > 0 {
		mx, mlabels := batchFrom(s.ctx.RNG, s.memories, 8, m.InC, m.InH, m.InW)
		plainGrad(s.ctx, mx, mlabels, s.memClass)
		for i, mg := range m.Grads() {
			g[i] += 0.5 * mg
		}
	}
	m.SetGrads(g)
	step(s.ctx)
	return loss
}

// TaskEnd snapshots the model and retains samples.
func (s *Co2L) TaskEnd(ct data.ClientTask) {
	s.prev = append(s.prev[:0], s.ctx.Model.Weights()...)
	n := int(float64(len(ct.Train))*s.MemFrac + 0.5)
	if n < 1 {
		n = 1
	}
	s.memories = append(s.memories, reservoir(s.ctx.RNG, ct.Train, n)...)
	s.memClass = classesOf(s.memories)
}

// MemoryBytes charges the buffer plus the model snapshot.
func (s *Co2L) MemoryBytes() int {
	return sampleBytes(s.memories) + len(s.prev)*4
}

// OverheadFLOPs charges the distillation forward+backward and rehearsal.
func (s *Co2L) OverheadFLOPs() float64 {
	if s.prev == nil {
		return 0
	}
	return 5 * s.ctx.Model.FLOPsPerSample() * 16
}

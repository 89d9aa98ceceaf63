package baselines

import (
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// FLCN is federated learning with continual local training [57]: clients
// upload a fraction of their samples to the server once per task; after
// every aggregation the server rehearses the global model on its buffer
// before broadcasting. In this per-client simulation the post-aggregation
// rehearsal runs inside AfterAggregate on the client's copy of the global
// model (all clients hold the identical global model at that point, so the
// effect matches a server-side update followed by broadcast); the sample
// upload is charged to communication.
type FLCN struct {
	fed.BaseStrategy
	ctx *fed.ClientCtx
	// ShareFrac is the fraction of task samples sent to the server (10 %
	// per §V-B).
	ShareFrac     float64
	serverBuf     []data.Sample
	serverClasses []int
	pendingUpload int
}

// NewFLCN builds the strategy.
func NewFLCN(ctx *fed.ClientCtx) fed.Strategy { return &FLCN{ctx: ctx, ShareFrac: 0.10} }

// Name identifies the method.
func (s *FLCN) Name() string { return "FLCN" }

// TrainStep is plain local SGD.
func (s *FLCN) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	loss := plainGrad(s.ctx, x, labels, classes)
	step(s.ctx)
	return loss
}

// AfterAggregate rehearses the (just-installed) global model on the server
// buffer.
func (s *FLCN) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	if len(s.serverBuf) == 0 {
		return
	}
	m := s.ctx.Model
	for it := 0; it < 2; it++ {
		x, labels := batchFrom(s.ctx.RNG, s.serverBuf, 16, m.InC, m.InH, m.InW)
		plainGrad(s.ctx, x, labels, s.serverClasses)
		step(s.ctx)
	}
}

// TaskEnd uploads a fraction of the task's samples to the server.
func (s *FLCN) TaskEnd(ct data.ClientTask) {
	n := int(float64(len(ct.Train))*s.ShareFrac + 0.5)
	if n < 1 {
		n = 1
	}
	up := reservoir(s.ctx.RNG, ct.Train, n)
	s.serverBuf = append(s.serverBuf, up...)
	s.serverClasses = classesOf(s.serverBuf)
	s.pendingUpload += sampleBytes(up)
}

// ExtraUploadBytes reports the pending sample upload once (the round after
// the task that produced it).
func (s *FLCN) ExtraUploadBytes() int {
	b := s.pendingUpload
	s.pendingUpload = 0
	return b
}

// MemoryBytes: the server holds the buffer, not the device; the client's
// extra footprint is negligible.
func (s *FLCN) MemoryBytes() int { return 0 }

// FedWEIT [58] decomposes weights into an aggregated base plus sparse
// task-adaptive deltas, and broadcasts *every client's* adaptive weights so
// each client can transfer from all peers. That design is what FedKNOW's
// communication evaluation targets: per round a client uploads its own
// adaptive weights and downloads the pool of all other clients' adaptive
// weights for all tasks so far, so traffic grows with clients × tasks.
//
// Mechanistic simplification: the base/adaptive decomposition is realised
// as (base = global model snapshot, adaptive_t = top-ρw of w − base at task
// end) with an L1 pull toward the base during training standing in for the
// sparsity regulariser; the downloaded peer pool regularises training by
// pulling weights toward the pool mean at the adaptive positions
// (inter-client transfer). The communication and memory accounting — the
// quantities Figs. 5–6 compare — follow the original protocol exactly.
type FedWEIT struct {
	fed.BaseStrategy
	ctx *fed.ClientCtx
	// RhoW is the adaptive-weight sparsity (fraction of the model kept per
	// task per client).
	RhoW float64
	// Sparsity is the L1 pull toward the base.
	Sparsity float64
	// UseAllClients toggles the peer pool (Fig. 10 compares all-clients vs
	// own-tasks-only).
	UseAllClients bool

	base     []float32
	adaptive []*prune.SparseStore // own, one per finished task
	poolMean []float32            // mean of simulated peer adaptive weights
	tasks    int
}

// NewFedWEIT builds the original (all-clients) configuration.
func NewFedWEIT(ctx *fed.ClientCtx) fed.Strategy {
	return &FedWEIT{ctx: ctx, RhoW: 0.3, Sparsity: 1e-4, UseAllClients: true}
}

// NewFedWEITLocal builds the own-adaptive-weights-only ablation of Fig. 10.
func NewFedWEITLocal(ctx *fed.ClientCtx) fed.Strategy {
	return &FedWEIT{ctx: ctx, RhoW: 0.3, Sparsity: 1e-4, UseAllClients: false}
}

// Name identifies the method.
func (s *FedWEIT) Name() string {
	if s.UseAllClients {
		return "FedWEIT"
	}
	return "FedWEIT-local"
}

// TrainStep trains base+adaptive jointly: task gradient plus L1 pull toward
// the base (sparsifying the implicit delta) plus a pull toward the peer
// pool mean (inter-client transfer).
func (s *FedWEIT) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	loss := plainGrad(s.ctx, x, labels, classes)
	if s.base != nil {
		w, g := s.ctx.Model.Weights(), s.ctx.Model.Grads()
		sp := float32(s.Sparsity)
		for j := range w {
			d := w[j] - s.base[j]
			// Subgradient of λ|d|.
			switch {
			case d > 0:
				g[j] += sp
			case d < 0:
				g[j] -= sp
			}
			if s.UseAllClients && s.poolMean != nil {
				g[j] += 1e-4 * (w[j] - s.poolMean[j])
			}
		}
	}
	step(s.ctx)
	return loss
}

// AfterAggregate snapshots the new global model as the base and refreshes
// the simulated peer pool (the mean of peers' adaptive weights; peers are
// non-IID perturbations of the base in this single-process simulation).
func (s *FedWEIT) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	s.base = append(s.base[:0], s.ctx.Model.Weights()...)
	if s.UseAllClients {
		if s.poolMean == nil {
			s.poolMean = make([]float32, len(s.base))
		}
		copy(s.poolMean, s.base)
	}
}

// TaskEnd extracts this task's adaptive weights (top-ρw of the delta from
// the base).
func (s *FedWEIT) TaskEnd(ct data.ClientTask) {
	w := s.ctx.Model.Weights()
	if s.base == nil {
		s.base = append([]float32(nil), w...)
	}
	delta := make([]float32, len(w))
	for i := range w {
		delta[i] = w[i] - s.base[i]
	}
	s.adaptive = append(s.adaptive, prune.Extract(delta, s.RhoW))
	s.tasks++
}

// adaptiveBytes is the wire size of one task's adaptive weights.
func (s *FedWEIT) adaptiveBytes() int {
	return int(float64(s.ctx.Model.ParamBytes()) * s.RhoW * 2) // indices+values
}

// ExtraUploadBytes: the client ships its own adaptive weights each round.
func (s *FedWEIT) ExtraUploadBytes() int {
	if s.tasks == 0 {
		return 0
	}
	return s.adaptiveBytes()
}

// ExtraDownloadBytes: the server broadcasts every other client's adaptive
// weights for every task so far — the communication blow-up the paper
// measures (8× basic FL at just 20 clients).
func (s *FedWEIT) ExtraDownloadBytes() int {
	if !s.UseAllClients || s.tasks == 0 {
		return 0
	}
	return (s.ctx.NumClients - 1) * s.tasks * s.adaptiveBytes()
}

// MemoryBytes: own adaptive weights plus, in the all-clients configuration,
// the downloaded pool (clients × tasks adaptive sets) — this is what runs
// the 2 GB Raspberry Pi out of memory after ~7 tasks in §V-B.
func (s *FedWEIT) MemoryBytes() int {
	own := 0
	for _, a := range s.adaptive {
		own += a.Bytes()
	}
	if !s.UseAllClients {
		return own
	}
	return own + (s.ctx.NumClients-1)*s.tasks*s.adaptiveBytes()
}

// OverheadFLOPs charges the decomposition penalty (a parameter pass).
func (s *FedWEIT) OverheadFLOPs() float64 {
	return float64(len(s.base)) * 4
}

package baselines

import (
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/tensor"
)

// FedAvg is plain federated averaging [37]: local SGD, full-model
// aggregation, no continual-learning machinery at all. It is the
// communication-cost reference every non-FedWEIT method shares.
type FedAvg struct {
	fed.BaseStrategy
	ctx *fed.ClientCtx
}

// NewFedAvg builds the strategy.
func NewFedAvg(ctx *fed.ClientCtx) fed.Strategy { return &FedAvg{ctx: ctx} }

// Name identifies the method.
func (s *FedAvg) Name() string { return "FedAvg" }

// TrainStep is one plain SGD step.
func (s *FedAvg) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	loss := plainGrad(s.ctx, x, labels, classes)
	step(s.ctx)
	return loss
}

// APFL is adaptive personalised federated learning [9]: each client keeps a
// personal model and serves the convex mixture w = α·personal + (1−α)·global,
// with α adapted toward whichever side currently fits local data better.
type APFL struct {
	fed.BaseStrategy
	ctx      *fed.ClientCtx
	Alpha    float64
	personal []float32
}

// NewAPFL builds the strategy with the common α = 0.5 initialisation.
func NewAPFL(ctx *fed.ClientCtx) fed.Strategy { return &APFL{ctx: ctx, Alpha: 0.5} }

// Name identifies the method.
func (s *APFL) Name() string { return "APFL" }

// TrainStep is a plain local step; the personal model tracks the result.
func (s *APFL) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	loss := plainGrad(s.ctx, x, labels, classes)
	step(s.ctx)
	s.personal = append(s.personal[:0], s.ctx.Model.Weights()...)
	return loss
}

// AfterAggregate installs the adaptive mixture of the personal
// (pre-aggregation) and global models.
func (s *APFL) AfterAggregate(preAgg []float32, ct data.ClientTask) {
	if s.personal == nil {
		// Copy: preAgg is an engine-owned buffer that is rewritten every
		// round.
		s.personal = append([]float32(nil), preAgg...)
	}
	w := s.ctx.Model.Weights()
	a := float32(s.Alpha)
	for i, global := range w {
		w[i] = a*s.personal[i] + (1-a)*global
	}
}

// FedRep [7] splits the network into shared representation layers and a
// personal head: only the representation is aggregated, the head stays
// local. The mask marks every parameter except the final linear layer's.
type FedRep struct {
	fed.BaseStrategy
	ctx  *fed.ClientCtx
	mask []bool
}

// NewFedRep builds the strategy.
func NewFedRep(ctx *fed.ClientCtx) fed.Strategy {
	params := ctx.Model.Params()
	n := ctx.Model.NumParams()
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	// The classifier head is the last two parameter tensors (Linear W, B).
	headLen := 0
	if len(params) >= 2 {
		headLen = params[len(params)-1].W.Len() + params[len(params)-2].W.Len()
	}
	for i := n - headLen; i < n; i++ {
		mask[i] = false
	}
	return &FedRep{ctx: ctx, mask: mask}
}

// Name identifies the method.
func (s *FedRep) Name() string { return "FedRep" }

// TrainStep is a plain local step (representation and head both train
// locally; FedRep's alternating schedule is folded into the shared loop).
func (s *FedRep) TrainStep(x *tensor.Tensor, labels []int, classes []int) float64 {
	loss := plainGrad(s.ctx, x, labels, classes)
	step(s.ctx)
	return loss
}

// AggregateMask keeps the head personal.
func (s *FedRep) AggregateMask() []bool { return s.mask }

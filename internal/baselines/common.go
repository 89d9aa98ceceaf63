// Package baselines implements the 11 comparison methods of §V-A: six
// continual-learning methods (GEM, BCN, Co2L, EWC, MAS, AGS-CL), three
// federated-learning methods (FedAvg, APFL, FedRep) and two federated
// continual-learning methods (FLCN, FedWEIT). Each is a fed.Strategy so the
// same engine drives every method under identical protocol, data and time
// accounting.
//
// Fidelity notes: every method implements its defining mechanism (episodic
// gradient projection, balanced rehearsal, contrastive/distilled feature
// preservation, Fisher/sensitivity regularisation, group freezing, model
// mixing, split representation/head aggregation, server-side rehearsal,
// base+adaptive weight decomposition). Full-paper replicas of BCN, Co2L and
// AGS-CL would require machinery orthogonal to this paper's comparisons;
// the simplifications are noted on each type.
package baselines

import (
	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// plainGrad computes the masked-cross-entropy gradient of the client model
// on the batch into the model's gradients (Model.Grads) and returns the loss.
func plainGrad(ctx *fed.ClientCtx, x *tensor.Tensor, labels []int, classes []int) float64 {
	m := ctx.Model
	logits := m.Forward(x, true)
	loss, dl := nn.MaskedCrossEntropy(logits, labels, classes)
	clear(m.Grads())
	m.Backward(dl)
	return loss
}

// step applies the client optimiser to the model's weights and gradients.
func step(ctx *fed.ClientCtx) { ctx.Opt.Step(ctx.Model.Weights(), ctx.Model.Grads()) }

// sampleBytes estimates the memory cost of retained samples.
func sampleBytes(samples []data.Sample) int {
	total := 0
	for _, s := range samples {
		total += len(s.X)*4 + 8
	}
	return total
}

// reservoir copies up to n randomly chosen samples.
func reservoir(rng *tensor.RNG, samples []data.Sample, n int) []data.Sample {
	if n >= len(samples) {
		return append([]data.Sample(nil), samples...)
	}
	out := make([]data.Sample, 0, n)
	for _, j := range rng.Perm(len(samples))[:n] {
		out = append(out, samples[j])
	}
	return out
}

// batchFrom assembles a batch from retained samples.
func batchFrom(rng *tensor.RNG, samples []data.Sample, n, c, h, w int) (*tensor.Tensor, []int) {
	if n > len(samples) {
		n = len(samples)
	}
	idx := rng.Perm(len(samples))[:n]
	return data.Batch(samples, idx, c, h, w)
}

// classesOf collects the distinct labels present in samples (used when
// replaying memory task-aware).
func classesOf(samples []data.Sample) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range samples {
		if !seen[s.Y] {
			seen[s.Y] = true
			out = append(out, s.Y)
		}
	}
	return out
}

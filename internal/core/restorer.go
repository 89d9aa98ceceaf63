package core

import (
	"math"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GradientRestorer implements §III-C / Eq. 2: it reconstructs a past task's
// gradient without stored samples. For past task i, it forwards the current
// batch through the knowledge model (task-i retained weights pasted over a
// zeroed parameter vector), takes the soft predictions as distillation
// targets, and differentiates the cross-entropy between the live model's
// predictions and those targets:
//
//	g_i = ∇ loss(f(W, X_{m+1}), f(W_i, X_{m+1}))
type GradientRestorer struct {
	m *model.Model
	// scratch buffers, reused across restores so the per-iteration restore
	// loop (k past tasks × every local step) performs no allocations.
	saved      []float32
	savedGrads []float32
	dense      []float32
	targets    []*tensor.Tensor
	probs      *tensor.Tensor // live masked softmax of the task being restored
	dl         *tensor.Tensor // distillation logit gradient fed to Backward
	outBufs    [][]float32
	outView    [][]float32
}

// NewGradientRestorer wraps the live model.
func NewGradientRestorer(m *model.Model) *GradientRestorer {
	return &GradientRestorer{m: m}
}

// Restore computes the restored gradient of one past task on the given
// batch. The model's parameters and gradients are preserved across the call.
// The returned slice is freshly allocated and owned by the caller.
func (r *GradientRestorer) Restore(k *TaskKnowledge, x *tensor.Tensor) []float32 {
	return append([]float32(nil), r.RestoreAll([]*TaskKnowledge{k}, x)[0]...)
}

// RestoreAll restores the gradients of every given knowledge record on the
// batch, in order. The returned slices live in buffers owned by the restorer
// and are valid until the next RestoreAll call.
//
// The live model's forward pass depends only on the live weights and the
// batch, so it runs once and its cached activations serve every task's
// distillation backward — backward passes read but never mutate the forward
// caches. The restored gradients are bitwise identical to restoring each
// task in full; the one behavioural difference is that BatchNorm running
// statistics now see a single train-mode forward per call instead of one
// per task (arguably the correct count — restoration is not extra
// training), which shifts eval-mode trajectories slightly versus the seed.
func (r *GradientRestorer) RestoreAll(ks []*TaskKnowledge, x *tensor.Tensor) [][]float32 {
	if len(ks) == 0 {
		return nil
	}
	r.PrepareTargets(ks, x)
	logits := r.m.Forward(x, true)
	return r.RestoredGradients(ks, logits)
}

// PrepareTargets runs phase 1 of restoration: it forwards the batch through
// each task's knowledge model (retained weights pasted over zeros) and
// stores the masked soft targets. Targets are restricted to each task's own
// classes — the knowledge model's logits are only meaningful there, and the
// restored gradient should protect exactly that behaviour. On return the
// live parameters are re-installed; the caller must run one live forward on
// the same batch (training loops fold it into their task-loss forward) and
// then call RestoredGradients.
func (r *GradientRestorer) PrepareTargets(ks []*TaskKnowledge, x *tensor.Tensor) {
	params := r.m.Params()
	r.saved = nn.FlattenParamsInto(r.saved, params)
	for len(r.targets) < len(ks) {
		r.targets = append(r.targets, nil)
	}
	for i, k := range ks {
		r.dense = k.Store.DensifyInto(r.dense)
		nn.SetFlatParams(params, r.dense)
		logitsK := r.m.Forward(x, false)
		r.targets[i] = maskedSoftmaxInto(r.targets[i], logitsK, k.Classes)
	}
	nn.SetFlatParams(params, r.saved)
}

// RestoredGradients is phase 2: given the logits of a live forward on the
// prepared batch (whose layer caches must still be intact), it runs one
// distillation backward per prepared task and returns the restored
// gradients. The parameters' gradient accumulators are preserved across the
// call. The returned slices are valid until the next phase-2 call.
func (r *GradientRestorer) RestoredGradients(ks []*TaskKnowledge, logits *tensor.Tensor) [][]float32 {
	params := r.m.Params()
	r.savedGrads = nn.FlattenGradsInto(r.savedGrads, params)
	for len(r.outBufs) < len(ks) {
		r.outBufs = append(r.outBufs, nil)
	}
	r.outView = r.outView[:0]
	for i, k := range ks {
		r.distillGrad(logits, r.targets[i], k.Classes)
		nn.ZeroGrads(params)
		r.m.Backward(r.dl)
		r.outBufs[i] = nn.FlattenGradsInto(r.outBufs[i], params)
		r.outView = append(r.outView, r.outBufs[i])
	}
	nn.SetFlatGrads(params, r.savedGrads)
	return r.outView
}

// maskedSoftmaxInto computes softmax over only the given classes, zero
// elsewhere, into a reused buffer.
func maskedSoftmaxInto(dst *tensor.Tensor, logits *tensor.Tensor, classes []int) *tensor.Tensor {
	dst = tensor.Ensure(dst, logits.Shape...)
	clear(dst.Data)
	maskedSoftmaxTo(dst, logits, classes)
	return dst
}

func maskedSoftmaxTo(out, logits *tensor.Tensor, classes []int) {
	n, k := logits.Shape[0], logits.Shape[1]
	for i := 0; i < n; i++ {
		maxV := float32(-3.4e38)
		for _, c := range classes {
			if v := logits.Data[i*k+c]; v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, c := range classes {
			e := exp32(logits.Data[i*k+c] - maxV)
			out.Data[i*k+c] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for _, c := range classes {
			out.Data[i*k+c] *= inv
		}
	}
}

// distillGrad leaves in r.dl the gradient of cross-entropy between the live
// model's masked softmax and the target distribution, restricted to the
// task classes.
func (r *GradientRestorer) distillGrad(logits, targets *tensor.Tensor, classes []int) {
	n, k := logits.Shape[0], logits.Shape[1]
	r.probs = maskedSoftmaxInto(r.probs, logits, classes)
	r.dl = tensor.Ensure(r.dl, n, k)
	clear(r.dl.Data)
	invN := float32(1 / float64(n))
	for i := 0; i < n; i++ {
		for _, c := range classes {
			r.dl.Data[i*k+c] = (r.probs.Data[i*k+c] - targets.Data[i*k+c]) * invN
		}
	}
}

func exp32(v float32) float32 {
	return float32(math.Exp(float64(v)))
}

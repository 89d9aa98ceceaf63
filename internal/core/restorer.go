package core

import (
	"math"

	"repro/internal/model"
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
	targets []*tensor.Tensor
	probs   *tensor.Tensor // live masked softmax of the task being restored
	dl      *tensor.Tensor // distillation logit gradient fed to Backward
	outBufs [][]float32
	outView [][]float32
}

// NewGradientRestorer wraps the live model.
func NewGradientRestorer(m *model.Model) *GradientRestorer {
	return &GradientRestorer{m: m}
}

// PrepareTargets runs phase 1 of restoration: it forwards the batch through
// each task's knowledge model (retained weights pasted over zeros) and
// stores the masked soft targets. Targets are restricted to each task's own
// classes — the knowledge model's logits are only meaningful there, and the
// restored gradient should protect exactly that behaviour. The knowledge
// forwards run on the borrowed model (model.Model.Borrow), so the live
// parameters and BatchNorm statistics are back in place on return; the caller
// must then run one live forward on the same batch (training loops fold it
// into their task-loss forward) and call RestoredGradients.
func (r *GradientRestorer) PrepareTargets(ks []*TaskKnowledge, x *tensor.Tensor) {
	for len(r.targets) < len(ks) {
		r.targets = append(r.targets, nil)
	}
	r.m.Borrow(func() {
		for i, k := range ks {
			installKnowledge(r.m, k.Store)
			logitsK := r.m.Forward(x, false)
			r.targets[i] = maskedSoftmaxInto(r.targets[i], logitsK, k.Classes)
		}
	})
}

// RestoredGradients is phase 2: given the logits of a live forward on the
// prepared batch (whose layer caches must still be intact), it runs one
// distillation backward per prepared task and returns the restored
// gradients. The live forward's activations serve every task's backward —
// backward passes read but never mutate the forward caches — so the result
// is bitwise what a separate forward per task would give. Gradients are
// scratch (see model.Model.Borrow): the call leaves the last task's restored
// gradient in the parameters' accumulators, and the caller installs the one
// it steps with. The returned slices are valid until the next phase-2 call.
func (r *GradientRestorer) RestoredGradients(ks []*TaskKnowledge, logits *tensor.Tensor) [][]float32 {
	for len(r.outBufs) < len(ks) {
		r.outBufs = append(r.outBufs, nil)
	}
	r.outView = r.outView[:0]
	for i, k := range ks {
		r.distillGrad(logits, r.targets[i], k.Classes)
		clear(r.m.Grads())
		r.m.Backward(r.dl)
		r.outBufs[i] = append(r.outBufs[i][:0], r.m.Grads()...)
		r.outView = append(r.outView, r.outBufs[i])
	}
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

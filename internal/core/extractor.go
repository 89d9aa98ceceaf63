// Package core implements FedKNOW (§III): the knowledge extractor, gradient
// restorer and gradient integrator, and the client-side training strategy
// that ties them together inside the federated engine.
package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// TaskKnowledge is one signature-task knowledge record: the top-ρ weights of
// the model after the task converged (Eq. 1), plus the task's class list so
// restored predictions can be interpreted.
type TaskKnowledge struct {
	TaskID  int
	Classes []int
	Store   *prune.SparseStore
}

// KnowledgeExtractor implements §III-B: step 1 is the task training the
// engine already performed; step 2 selects the top-ρ weights by magnitude;
// step 3 fine-tunes the retained weights with everything else frozen.
type KnowledgeExtractor struct {
	Rho           float64
	FinetuneIters int
	FinetuneLR    float64
}

// NewKnowledgeExtractor returns an extractor with the paper's defaults
// (ρ = 10 %, a short masked fine-tune).
func NewKnowledgeExtractor(rho float64) *KnowledgeExtractor {
	return &KnowledgeExtractor{Rho: rho, FinetuneIters: 10, FinetuneLR: 0.01}
}

// Extract builds the knowledge of a finished task from the live model,
// fine-tuning the retained weights on the task's own data (step 3) before
// recording them. The fine-tune runs on the borrowed model (model.Model.Borrow),
// so the live model leaves Extract with the parameters and BatchNorm running
// statistics it came in with; only its gradients and layer caches change.
func (e *KnowledgeExtractor) Extract(m *model.Model, ct data.ClientTask, rng *tensor.RNG) *TaskKnowledge {
	// Layer-wise top-ρ: select within each parameter tensor so the pruned
	// network keeps a live signal path through every layer (global
	// selection would zero out the layers with the smallest init scale).
	store := prune.ExtractSegments(m.Weights(), paramSegments(m), e.Rho)

	if e.FinetuneIters > 0 && len(ct.Train) > 0 {
		mask := store.Mask()
		m.Borrow(func() {
			// Fine-tune the retained weights in the *pruned* configuration —
			// everything else zeroed — because that is exactly how the
			// gradient restorer will evaluate them later (Eq. 2 forwards the
			// knowledge model, not the full model). Step 3 of §III-B: tune
			// W_i, keep the other weights unchanged (at their pruned value,
			// zero).
			installKnowledge(m, store)
			ft := opt.NewSGD(opt.Const{Rate: e.FinetuneLR}, 0, 0)
			batch := min(16, len(ct.Train))
			for it := 0; it < e.FinetuneIters; it++ {
				idx := rng.Perm(len(ct.Train))[:batch]
				x, labels := data.Batch(ct.Train, idx, m.InC, m.InH, m.InW)
				logits := m.Forward(x, true)
				_, dl := nn.MaskedCrossEntropy(logits, labels, ct.Classes)
				clear(m.Grads())
				m.Backward(dl)
				ft.StepMasked(m.Weights(), m.Grads(), mask)
			}
			store.Refresh(m.Weights())
		})
	}
	return &TaskKnowledge{TaskID: ct.TaskID, Classes: ct.Classes, Store: store}
}

// installKnowledge densifies a knowledge store straight into the borrowed
// model's weights: the retained values, zeros elsewhere. A store of another
// length panics, where DensifyInto would allocate and write nowhere.
func installKnowledge(m *model.Model, s *prune.SparseStore) {
	w := m.Weights()
	if s.N != len(w) {
		panic(fmt.Sprintf("core: knowledge of %d weights installed into a model of %d", s.N, len(w)))
	}
	s.DensifyInto(w)
}

// paramSegments returns the length of each of m's parameter tensors, in the
// order they lie in m.Weights().
func paramSegments(m *model.Model) []int {
	params := m.Params()
	segments := make([]int, len(params))
	for i, p := range params {
		segments[i] = p.W.Len()
	}
	return segments
}

package experiments

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fed"
)

// AblationResult reports final average accuracy and forgetting for FedKNOW
// variants with individual design components removed. This quantifies the
// DESIGN.md call-outs: the gradient integrator (catastrophic-forgetting
// defence) and the post-aggregation guard (negative-transfer defence).
//
// Three witnesses say whether those components had anything to work with.
// KnowledgeOverChance is the mean accuracy of every stored knowledge model
// on its own task's test split minus the mean chance (1 / the task's class
// count): a knowledge model at chance restores gradients that protect
// nothing. QPFireRate is the share of training steps with stored knowledge
// whose gradient violated a constraint, and GuardFireRate the share of
// guarded post-aggregation steps whose two gradients conflicted.
type AblationResult struct {
	Variants            []string
	Accuracy            map[string]float64
	Forgetting          map[string]float64
	KnowledgeOverChance map[string]float64
	QPFireRate          map[string]float64
	GuardFireRate       map[string]float64
	Table               *Table
}

// Ablation runs FedKNOW complete and with each component disabled on a
// CIFAR100-style workload.
func Ablation(opt Options) (*AblationResult, error) {
	f := NewFederation(opt, data.CIFAR100).Federate(opt)
	base := fedKNOWOptions(opt.Scale)
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"FedKNOW-full", base},
		{"no-integrator", func() core.Options { o := base; o.DisableIntegration = true; return o }()},
		{"no-global-guard", func() core.Options { o := base; o.DisableGlobalGuard = true; return o }()},
		{"no-post-agg-finetune", func() core.Options { o := base; o.FinetuneIters = 0; return o }()},
		{"no-extract-finetune", func() core.Options { o := base; o.ExtractFinetuneIters = -1; return o }()},
	}
	res := &AblationResult{Accuracy: map[string]float64{}, Forgetting: map[string]float64{},
		KnowledgeOverChance: map[string]float64{}, QPFireRate: map[string]float64{}, GuardFireRate: map[string]float64{}}
	for _, v := range variants {
		var clients []knowledgeClient
		r := train(opt, f, v.label, func(ctx *fed.ClientCtx) fed.Strategy {
			s := core.New(ctx, v.opts)
			clients = append(clients, knowledgeClient{ctx, s})
			return s
		})
		last := r.PerTask[len(r.PerTask)-1]
		res.Variants = append(res.Variants, v.label)
		res.Accuracy[v.label] = last.AvgAccuracy
		res.Forgetting[v.label] = last.ForgettingRate
		res.KnowledgeOverChance[v.label], res.QPFireRate[v.label], res.GuardFireRate[v.label] = witnesses(clients, f.seqs)
	}
	tbl := &Table{
		Title: "Ablation: FedKNOW component contributions (CIFAR100)",
		Header: []string{"Variant", "final avg accuracy", "final forgetting",
			"knowledge acc - chance", "QP fires", "guard fires"},
	}
	for _, v := range res.Variants {
		tbl.Rows = append(tbl.Rows, []string{v, f2(res.Accuracy[v] * 100), f2(res.Forgetting[v]),
			f2(res.KnowledgeOverChance[v] * 100), pct(res.QPFireRate[v]), pct(res.GuardFireRate[v])})
	}
	res.Table = tbl
	tbl.Print(opt.out())
	return res, nil
}

// knowledgeClient is one FedKNOW client of an ablation run, kept so that its
// stored knowledge and counters can be read once the run is over.
type knowledgeClient struct {
	ctx *fed.ClientCtx
	s   *core.FedKNOW
}

// witnesses computes AblationResult's three witnesses over a finished run's
// clients. Each stored knowledge model is evaluated as the restorer uses it:
// its weights installed over zeros on the client's model inside Borrow, in
// eval mode with the live BatchNorm statistics, on the client's test split of
// its task. A rate with nothing to count is 0.
func witnesses(clients []knowledgeClient, seqs [][]data.ClientTask) (overChance, qpRate, guardRate float64) {
	var acc, chance float64
	var records, steps, qpRuns, guardRuns, guardFires int
	for _, c := range clients {
		m := c.ctx.Model
		for _, k := range c.s.Knowledge() {
			for _, ct := range seqs[c.ctx.ID] {
				if ct.TaskID != k.TaskID {
					continue
				}
				m.Borrow(func() {
					k.Store.DensifyInto(m.Weights())
					acc += fed.EvalClientTask(m, ct)
				})
				chance += 1 / float64(len(ct.Classes))
				records++
			}
		}
		for _, st := range append([]core.IntegrationStats{c.s.Stats}, c.s.StatsByTask...) {
			steps += st.Steps
			qpRuns += st.QPRuns
			guardRuns += st.GuardRuns
			guardFires += st.GuardFires
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	if records > 0 {
		overChance = (acc - chance) / float64(records)
	}
	return overChance, ratio(qpRuns, steps), ratio(guardFires, guardRuns)
}

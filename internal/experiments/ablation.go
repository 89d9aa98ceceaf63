package experiments

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
)

// AblationResult reports final average accuracy and forgetting for FedKNOW
// variants with individual design components removed. This quantifies the
// DESIGN.md call-outs: the gradient integrator (catastrophic-forgetting
// defence) and the post-aggregation guard (negative-transfer defence).
type AblationResult struct {
	Variants   []string
	Accuracy   map[string]float64
	Forgetting map[string]float64
	Table      *Table
}

// Ablation runs FedKNOW complete and with each component disabled on a
// CIFAR100-style workload.
func Ablation(opt Options) (*AblationResult, error) {
	fam := data.CIFAR100
	ds, tasks := fam.Build(opt.Scale, opt.Seed)
	rt := RuntimeFor(fam, opt.Scale)
	arch := archFor(fam)
	alloc := data.DefaultAlloc(opt.Seed + 1)
	if opt.Scale == data.CI {
		alloc = data.CIAlloc(opt.Seed + 1)
	} else {
		rt.Clients = 20
	}
	opt.tune(&rt)
	seqs := data.Federate(tasks, rt.Clients, alloc)
	cluster := device.Jetson20()

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
	res := &AblationResult{Accuracy: map[string]float64{}, Forgetting: map[string]float64{}}
	for _, v := range variants {
		cfg := fed.Config{
			Method: v.label, Rounds: rt.Rounds, LocalIters: rt.LocalIters,
			BatchSize: rt.BatchSize, LR: rt.LR, LRDecay: rt.LRDecay,
			NumClasses: ds.NumClasses, Bandwidth: rt.Bandwidth, Seed: opt.Seed,
		}
		opt.applyScheduler(&cfg)
		e := fed.NewEngine(cfg, cluster, seqs,
			builderFor(arch, ds.NumClasses, ds.C, ds.H, ds.W, rt.Width),
			core.Factory(v.opts))
		if opt.Observer != nil {
			e.SetObserver(opt.Observer)
		}
		r := e.Run()
		last := r.PerTask[len(r.PerTask)-1]
		res.Variants = append(res.Variants, v.label)
		res.Accuracy[v.label] = last.AvgAccuracy
		res.Forgetting[v.label] = last.ForgettingRate
	}
	tbl := &Table{
		Title:  "Ablation: FedKNOW component contributions (CIFAR100)",
		Header: []string{"Variant", "final avg accuracy", "final forgetting"},
	}
	for _, v := range res.Variants {
		tbl.Rows = append(tbl.Rows, []string{v, f2(res.Accuracy[v] * 100), f2(res.Forgetting[v])})
	}
	res.Table = tbl
	tbl.Print(opt.out())
	return res, nil
}

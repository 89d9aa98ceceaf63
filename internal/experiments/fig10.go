package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fed"
)

// Fig10Setting is one knowledge-retention configuration of the parameter
// study (§V-E, Fig. 10).
type Fig10Setting struct {
	Label   string
	Factory fed.Factory
}

// Fig10Result reports final average accuracy and total training time for
// each retention setting.
type Fig10Result struct {
	Settings []string
	Accuracy map[string]float64
	Hours    map[string]float64
	Table    *Table
}

// fig10Settings builds the paper's configurations: GEM retaining 10–100 %
// of samples, FedWEIT with all clients' vs only its own adaptive weights,
// FedKNOW with ρ ∈ {5 %, 10 %, 20 %}.
func fig10Settings(scale data.Scale) []Fig10Setting {
	gem := func(frac float64) fed.Factory {
		return func(ctx *fed.ClientCtx) fed.Strategy { return baselines.NewGEMFrac(ctx, frac) }
	}
	fk := func(rho float64) fed.Factory {
		opts := fedKNOWOptions(scale)
		opts.Rho = rho
		return core.Factory(opts)
	}
	return []Fig10Setting{
		{"GEM-10%", gem(0.10)},
		{"GEM-20%", gem(0.20)},
		{"GEM-50%", gem(0.50)},
		{"GEM-100%", gem(1.00)},
		{"FedWEIT-all", baselines.NewFedWEIT},
		{"FedWEIT-own", baselines.NewFedWEITLocal},
		{"FedKNOW-5%", fk(0.05)},
		{"FedKNOW-10%", fk(0.10)},
		{"FedKNOW-20%", fk(0.20)},
	}
}

// Fig10 runs the parameter study on MiniImageNet + ResNet-18.
func Fig10(opt Options) (*Fig10Result, error) {
	f := newFederation(opt, data.MiniImageNet).federate(opt)
	res := &Fig10Result{Accuracy: map[string]float64{}, Hours: map[string]float64{}}
	for _, setting := range fig10Settings(opt.Scale) {
		r := train(opt, f, setting.Label, setting.Factory)
		last := r.PerTask[len(r.PerTask)-1]
		res.Settings = append(res.Settings, setting.Label)
		res.Accuracy[setting.Label] = last.AvgAccuracy
		res.Hours[setting.Label] = last.SimHours
	}
	tbl := &Table{
		Title:  "Fig.10: retention-parameter study on MiniImageNet/ResNet-18",
		Header: []string{"Setting", "final avg accuracy", "training time (h)"},
	}
	for _, s := range res.Settings {
		tbl.Rows = append(tbl.Rows, []string{s, f2(res.Accuracy[s] * 100), f6(res.Hours[s])})
	}
	res.Table = tbl
	tbl.Print(opt.out())
	return res, nil
}

package experiments

import (
	"fmt"

	"repro/internal/data"
)

// HyperResult reports a hyperparameter search outcome.
type HyperResult struct {
	Best     map[string]float64
	BestAcc  float64
	Searched int
}

// HyperSearch mirrors §V-B's protocol: hyperparameters are selected on a
// held-out SVHN workload (two tasks of five classes) rather than the
// evaluation datasets, avoiding test-set leakage. It grid-searches learning
// rate and decay over the paper's scopes and returns the configuration with
// the highest final average accuracy for the given method.
func HyperSearch(method string, opt Options) (*HyperResult, error) {
	lrs := []float64{0.0005, 0.0008, 0.001, 0.005}
	decays := []float64{1e-6, 1e-5, 1e-4}
	if opt.Scale == data.CI {
		lrs = []float64{0.005, 0.02}
		decays = []float64{1e-5, 1e-4}
	}
	f := NewFederation(opt, data.SVHN).Federate(opt)
	res := &HyperResult{Best: map[string]float64{}}
	for _, lr := range lrs {
		for _, decay := range decays {
			f.rt.LR, f.rt.LRDecay = lr, decay
			r := train(opt, f, method, MethodFactory(method, opt.Scale))
			res.Searched++
			acc := r.PerTask[len(r.PerTask)-1].AvgAccuracy
			fmt.Fprintf(opt.out(), "hyper %s lr=%g decay=%g → acc %.4f\n", method, lr, decay, acc)
			if acc > res.BestAcc {
				res.BestAcc = acc
				res.Best["lr"] = lr
				res.Best["decay"] = decay
			}
		}
	}
	return res, nil
}

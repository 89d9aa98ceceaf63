package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fed"
)

// Fig9Models are the architectures of the applicability study (§V-E),
// spanning the survey's six DNN categories.
var Fig9Models = []string{
	"WideResNet", "ResNeXt", "ResNet152", "SENet18",
	"MobileNetV2", "MobileNetV2x2", "ShuffleNetV2", "DenseNet", "InceptionV3",
}

// Fig9Result is the per-architecture accuracy comparison of GEM / FedWEIT /
// FedKNOW on MiniImageNet.
type Fig9Result struct {
	Models  []string
	Methods []string
	// Series[model][method] is the accuracy-vs-task curve.
	Series map[string]map[string]Series
	Raw    map[string]*fed.Result // keyed "model/method"
}

// Fig9 runs the applicability sweep. models selects a subset (nil = all).
func Fig9(opt Options, models []string) (*Fig9Result, error) {
	if models == nil {
		models = Fig9Models
	}
	methods := []string{"GEM", "FedWEIT", "FedKNOW"}
	f := newFederation(opt, data.MiniImageNet).federate(opt)
	res := &Fig9Result{Models: models, Methods: methods,
		Series: map[string]map[string]Series{}, Raw: map[string]*fed.Result{}}
	for _, arch := range models {
		f.arch = arch
		res.Series[arch] = map[string]Series{}
		var panel []Series
		for _, m := range methods {
			r := train(opt, f, m, MethodFactory(m, opt.Scale))
			res.Raw[arch+"/"+m] = r
			s := perTask(m, r, taskNumber, avgAccuracy)
			res.Series[arch][m] = s
			panel = append(panel, s)
		}
		PrintSeries(opt.out(), fmt.Sprintf("Fig.9: %s on MiniImageNet", arch), panel)
	}
	return res, nil
}

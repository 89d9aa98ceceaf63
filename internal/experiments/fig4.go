package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/model"
)

// Fig4Result carries one panel of Fig. 4: accuracy-vs-training-time curves
// for each method on one dataset/cluster combination.
type Fig4Result struct {
	Panel   string
	Dataset string
	Methods []string
	Series  []Series // X = cumulative simulated hours, Y = avg accuracy
	Raw     map[string]*fed.Result
}

// fig4Spec describes one panel.
type fig4Spec struct {
	family  data.Family
	mixed30 bool // 30-device cluster with Raspberry Pis
}

var fig4Panels = map[string]fig4Spec{
	"a": {data.CIFAR100, false},
	"b": {data.FC100, false},
	"c": {data.CORe50, false},
	"d": {data.CIFAR100, true},
	"e": {data.FC100, true},
	"f": {data.CORe50, true},
	"g": {data.MiniImageNet, false},
	"h": {data.TinyImageNet, false},
}

// fig4MixedMethods are the three best techniques the 30-device panels
// compare (§V-B).
var fig4MixedMethods = []string{"GEM", "FedWEIT", "FedKNOW"}

// Fig4 runs one panel (a–h) and returns its curves.
func Fig4(panel string, opt Options) (*Fig4Result, error) {
	spec, ok := fig4Panels[panel]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown Fig.4 panel %q (a–h)", panel)
	}
	f := newFederation(opt, spec.family)
	methods := AllMethods
	if spec.mixed30 {
		methods = fig4MixedMethods
		if opt.Scale == data.Full {
			f.cluster = device.Mixed30()
		} else {
			// CI-scale mixed cluster: 3 Jetsons + 3 Raspberry Pis (one 2 GB)
			// so heterogeneity and the OOM path are still exercised.
			f.cluster = &device.Cluster{Devices: []device.Device{
				device.JetsonAGX, device.JetsonXavierNX, device.JetsonNano,
				device.RaspberryPi(2), device.RaspberryPi(4), device.RaspberryPi(8),
			}}
		}
		f.rt.Clients = f.cluster.Size()
		f.rt.MemScale = memScaleFor(f.arch, f.ds, f.rt.Width)
	}
	f.federate(opt)

	res := &Fig4Result{Panel: panel, Dataset: spec.family.Name, Methods: methods,
		Raw: map[string]*fed.Result{}}
	for _, m := range methods {
		r := train(opt, f, m, MethodFactory(m, opt.Scale))
		res.Raw[m] = r
		res.Series = append(res.Series, perTask(m, r, simHours, avgAccuracy))
	}
	PrintSeries(opt.out(), fmt.Sprintf("Fig.4(%s): %s accuracy vs training time", panel, spec.family.Name), res.Series)
	return res, nil
}

// memScaleFor maps simulated model bytes to real-hardware bytes so the
// device-memory model (GB-scale boards) bites: the scaled-width models here
// are ~10³–10⁴× smaller than their full-size counterparts (ResNet-18 is
// ~45 MB in float32).
func memScaleFor(arch string, ds *data.Dataset, width int) float64 {
	probe := model.MustBuild(arch, ds.NumClasses, ds.C, ds.H, ds.W, width, nil) // only its size is read
	const realModelBytes = 45e6
	return realModelBytes / float64(probe.ParamBytes())
}

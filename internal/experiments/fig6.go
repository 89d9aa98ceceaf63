package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/device"
)

// Fig6Result is the communication-time-vs-bandwidth sweep (Fig. 6) for the
// 6-layer CNN and ResNet-18, FedKNOW vs FedWEIT.
type Fig6Result struct {
	// Hours[model][method] is a series over device.Fig6Bandwidths.
	Hours map[string]map[string][]float64
	Table *Table
}

// Fig6 runs each (model, method) combination once at the reference 1 MB/s
// bandwidth; communication time is exactly inversely proportional to
// bandwidth, so the sweep follows analytically (as it does on the real
// testbed, where links are rate-limited).
func Fig6(opt Options) (*Fig6Result, error) {
	combos := []struct {
		label  string
		family data.Family
	}{
		{"6CNN", data.CIFAR100},
		{"ResNet18", data.MiniImageNet},
	}
	methods := []string{"FedKNOW", "FedWEIT"}
	res := &Fig6Result{Hours: map[string]map[string][]float64{}}
	const refBW = 1024 * 1024
	for _, combo := range combos {
		f := NewFederation(opt, combo.family)
		f.rt.Bandwidth = refBW
		f.Federate(opt)
		res.Hours[combo.label] = map[string][]float64{}
		for _, m := range methods {
			r := train(opt, f, m, MethodFactory(m, opt.Scale))
			ref := r.PerTask[len(r.PerTask)-1].CommHours
			hours := make([]float64, len(device.Fig6Bandwidths))
			for i, bw := range device.Fig6Bandwidths {
				hours[i] = ref * refBW / bw
			}
			res.Hours[combo.label][m] = hours
		}
	}
	tbl := &Table{
		Title:  "Fig.6: total communication time (h) vs bandwidth",
		Header: []string{"Model", "Method"},
	}
	for _, bw := range device.Fig6Bandwidths {
		tbl.Header = append(tbl.Header, device.BandwidthLabel(bw))
	}
	for _, combo := range combos {
		for _, m := range methods {
			row := []string{combo.label, m}
			for _, h := range res.Hours[combo.label][m] {
				row = append(row, fmt.Sprintf("%.3f", h))
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	res.Table = tbl
	tbl.Print(opt.out())
	return res, nil
}

package experiments

import "repro/internal/data"

// Fig5Result is the total communication volume comparison (Fig. 5):
// FedKNOW vs FedWEIT on each workload, in GB of up+down traffic.
type Fig5Result struct {
	Datasets []string
	VolumeGB map[string]map[string]float64 // dataset → method → GB
	Table    *Table
}

// Fig5 measures total communication volume for both methods across the
// requested datasets (nil = all five).
func Fig5(opt Options, datasets []data.Family) (*Fig5Result, error) {
	if datasets == nil {
		datasets = data.Families
	}
	methods := []string{"FedKNOW", "FedWEIT"}
	res := &Fig5Result{VolumeGB: map[string]map[string]float64{}}
	for _, fam := range datasets {
		f := newFederation(opt, fam).federate(opt)
		res.Datasets = append(res.Datasets, fam.Name)
		res.VolumeGB[fam.Name] = map[string]float64{}
		for _, m := range methods {
			r := train(opt, f, m, MethodFactory(m, opt.Scale))
			last := r.PerTask[len(r.PerTask)-1]
			res.VolumeGB[fam.Name][m] = gb(last.UpBytes + last.DownBytes)
		}
	}
	tbl := &Table{
		Title:  "Fig.5: total communication volume (GB)",
		Header: []string{"Dataset", "FedKNOW", "FedWEIT", "reduction"},
	}
	for _, d := range res.Datasets {
		fk := res.VolumeGB[d]["FedKNOW"]
		fw := res.VolumeGB[d]["FedWEIT"]
		red := 0.0
		if fw > 0 {
			red = (fw - fk) / fw
		}
		tbl.Rows = append(tbl.Rows, []string{d, f6(fk), f6(fw), pct(red)})
	}
	res.Table = tbl
	tbl.Print(opt.out())
	return res, nil
}

package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
)

// Table1Result is the paper's Table I: the percentage improvement of
// FedKNOW's per-task average accuracy over the mean of the 11 baselines,
// per dataset and task.
type Table1Result struct {
	Datasets    []string
	Improvement map[string][]float64 // dataset → per-task % improvement
	Table       *Table
}

// Table1 runs FedKNOW and all baselines on the requested datasets (nil
// means all five) and tabulates the improvement.
func Table1(opt Options, datasets []data.Family) (*Table1Result, error) {
	if datasets == nil {
		datasets = data.Families
	}
	res := &Table1Result{Improvement: map[string][]float64{}}
	maxTasks := 0
	for _, fam := range datasets {
		ds, tasks := fam.Build(opt.Scale, opt.Seed)
		rt := RuntimeFor(fam, opt.Scale)
		arch := archFor(fam)
		alloc := data.DefaultAlloc(opt.Seed + 1)
		cluster := device.Jetson20()
		if opt.Scale == data.CI {
			alloc = data.CIAlloc(opt.Seed + 1)
		} else {
			rt.Clients = 20
		}
		opt.tune(&rt)
		seqs := data.Federate(tasks, rt.Clients, alloc)

		results := map[string]*fed.Result{}
		for _, m := range AllMethods {
			results[m] = runOne(m, opt, rt, fixedCluster{cluster}, seqs, ds.NumClasses, arch, ds)
		}
		nTasks := len(tasks)
		if nTasks > maxTasks {
			maxTasks = nTasks
		}
		imp := make([]float64, nTasks)
		for t := 0; t < nTasks; t++ {
			fk := results["FedKNOW"].PerTask[t].AvgAccuracy
			var sum float64
			n := 0
			for m, r := range results {
				if m == "FedKNOW" {
					continue
				}
				sum += r.PerTask[t].AvgAccuracy
				n++
			}
			mean := sum / float64(n)
			if mean > 0 {
				imp[t] = (fk - mean) / mean * 100
			}
		}
		res.Datasets = append(res.Datasets, fam.Name)
		res.Improvement[fam.Name] = imp
	}

	tbl := &Table{
		Title:  "Table I: average percentage accuracy improvement of FedKNOW over the mean of 11 baselines",
		Header: append([]string{"Task"}, res.Datasets...),
	}
	for t := 0; t < maxTasks; t++ {
		row := []string{fmt.Sprintf("Task%d", t+1)}
		for _, d := range res.Datasets {
			imp := res.Improvement[d]
			if t < len(imp) {
				row = append(row, fmt.Sprintf("%.2f%%", imp[t]))
			} else {
				row = append(row, "-")
			}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	res.Table = tbl
	tbl.Print(opt.out())
	return res, nil
}

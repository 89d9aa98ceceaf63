package experiments

import (
	"fmt"

	"repro/internal/data"
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
		f := newFederation(opt, fam).federate(opt)
		results := map[string]*fed.Result{}
		for _, m := range AllMethods {
			results[m] = train(opt, f, m, MethodFactory(m, opt.Scale))
		}
		maxTasks = max(maxTasks, len(f.tasks))
		res.Datasets = append(res.Datasets, fam.Name)
		res.Improvement[fam.Name] = improvement(results, len(f.tasks))
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

// improvement is FedKNOW's per-task accuracy gain over the mean of the 11
// baselines, in percent. The baselines are summed in AllMethods order, so
// the float sum, and the result, are the same on every call.
func improvement(results map[string]*fed.Result, nTasks int) []float64 {
	others := AllMethods[1:]
	imp := make([]float64, nTasks)
	for t := range imp {
		var sum float64
		for _, m := range others {
			sum += results[m].PerTask[t].AvgAccuracy
		}
		mean := sum / float64(len(others))
		if mean > 0 {
			imp[t] = (results["FedKNOW"].PerTask[t].AvgAccuracy - mean) / mean * 100
		}
	}
	return imp
}

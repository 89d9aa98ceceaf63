package experiments

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fed"
)

// Fig7Result is the task-scalability study (Fig. 7): accuracy and forgetting
// rate as the merged MiniImageNet + CIFAR100 + TinyImageNet workload grows
// to 80 tasks, on ResNet-18 with 20 clients, for GEM / FedWEIT / FedKNOW.
type Fig7Result struct {
	NumTasks   int
	Methods    []string
	Accuracy   []Series
	Forgetting []Series
	Raw        map[string]*fed.Result
}

// Fig7 builds the merged dataset (80 tasks × 5 classes at Full scale; 10
// tasks × 16 classes at CI, preserving the "many tasks" shape) and runs the
// three methods.
func Fig7(opt Options) (*Fig7Result, error) {
	numTasks := 80
	if opt.Scale == data.CI {
		numTasks = 10
	}
	f := NewFederation(opt, data.MiniImageNet)
	// The study fixes its cohort (20 clients at Full scale); opt.Tune does
	// not resize it.
	f.clients = f.rt.Clients
	cifar, _ := data.CIFAR100.Build(opt.Scale, opt.Seed+1)
	tiny, _ := data.TinyImageNet.Build(opt.Scale, opt.Seed+2)
	f.ds = data.MergeDatasets("Merged80", f.ds, cifar, tiny)
	f.tasks = data.SplitTasks(f.ds, numTasks)
	f.alloc = allocFor(opt.Scale, opt.Seed+3)
	f.Federate(opt)

	methods := []string{"GEM", "FedWEIT", "FedKNOW"}
	res := &Fig7Result{NumTasks: numTasks, Methods: methods, Raw: map[string]*fed.Result{}}
	for _, m := range methods {
		r := train(opt, f, m, MethodFactory(m, opt.Scale))
		res.Raw[m] = r
		res.Accuracy = append(res.Accuracy, perTask(m, r, taskNumber, avgAccuracy))
		res.Forgetting = append(res.Forgetting, perTask(m, r, taskNumber, forgetting))
	}
	PrintSeries(opt.out(), fmt.Sprintf("Fig.7(a): avg accuracy vs number of tasks (%d tasks)", numTasks), res.Accuracy)
	PrintSeries(opt.out(), "Fig.7(b): forgetting rate vs number of tasks", res.Forgetting)
	return res, nil
}

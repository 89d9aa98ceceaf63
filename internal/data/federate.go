package data

import (
	"repro/internal/tensor"
)

// ClientTask is a client's private view of one task: a non-IID subset of the
// task's classes and samples. Test keeps every test sample of the client's
// classes so accuracy is measured on the client's own distribution.
type ClientTask struct {
	TaskID  int
	Classes []int
	Train   []Sample
	Test    []Sample
}

// AllocConfig controls the FedRep-style heterogeneous allocation (§V-A):
// each client receives MinClasses–MaxClasses of each task's classes and
// MinFrac–MaxFrac of each chosen class's training samples.
type AllocConfig struct {
	MinClasses int
	MaxClasses int
	MinFrac    float64
	MaxFrac    float64
	Seed       uint64
}

// DefaultAlloc mirrors the paper: 2–5 classes per client per task, 5–10 % of
// each class's samples.
func DefaultAlloc(seed uint64) AllocConfig {
	return AllocConfig{MinClasses: 2, MaxClasses: 5, MinFrac: 0.05, MaxFrac: 0.10, Seed: seed}
}

// CIAlloc uses larger fractions so the tiny CI-scale datasets still give
// every client enough samples to learn from.
func CIAlloc(seed uint64) AllocConfig {
	return AllocConfig{MinClasses: 2, MaxClasses: 3, MinFrac: 0.4, MaxFrac: 0.8, Seed: seed}
}

// Federate assigns every task to every client with a private class subset,
// sample subset and task order ("each client has all tasks of a dataset and
// its distinct task sequence"). The result is indexed [client][position in
// that client's sequence].
func Federate(tasks []Task, numClients int, cfg AllocConfig) [][]ClientTask {
	root := tensor.NewRNG(cfg.Seed)
	out := make([][]ClientTask, numClients)
	// Pre-index samples by class for O(1) class slicing.
	trainByClass := map[int][]Sample{}
	testByClass := map[int][]Sample{}
	for _, t := range tasks {
		for _, s := range t.Train {
			trainByClass[s.Y] = append(trainByClass[s.Y], s)
		}
		for _, s := range t.Test {
			testByClass[s.Y] = append(testByClass[s.Y], s)
		}
	}
	for c := 0; c < numClients; c++ {
		r := root.Fork(uint64(c) + 1)
		order := r.Perm(len(tasks))
		seq := make([]ClientTask, 0, len(tasks))
		for _, ti := range order {
			task := tasks[ti]
			nc := cfg.MinClasses
			if cfg.MaxClasses > cfg.MinClasses {
				nc += r.Intn(cfg.MaxClasses - cfg.MinClasses + 1)
			}
			if nc > len(task.Classes) {
				nc = len(task.Classes)
			}
			perm := r.Perm(len(task.Classes))
			ct := ClientTask{TaskID: task.ID}
			for i := 0; i < nc; i++ {
				class := task.Classes[perm[i]]
				ct.Classes = append(ct.Classes, class)
				frac := cfg.MinFrac + (cfg.MaxFrac-cfg.MinFrac)*r.Float64()
				pool := trainByClass[class]
				n := int(float64(len(pool))*frac + 0.5)
				if n < 1 && len(pool) > 0 {
					n = 1
				}
				for _, j := range r.Perm(len(pool))[:n] {
					ct.Train = append(ct.Train, pool[j])
				}
				ct.Test = append(ct.Test, testByClass[class]...)
			}
			seq = append(seq, ct)
		}
		out[c] = seq
	}
	return out
}

// MergeDatasets concatenates datasets into one combined label space (labels
// of later datasets are offset past earlier ones). The Fig. 7 experiment
// merges MiniImageNet + CIFAR100 + TinyImageNet this way and re-splits the
// result into 80 tasks.
func MergeDatasets(name string, ds ...*Dataset) *Dataset {
	if len(ds) == 0 {
		panic("data: MergeDatasets needs at least one dataset")
	}
	out := &Dataset{Name: name, C: ds[0].C, H: ds[0].H, W: ds[0].W}
	offset := 0
	for _, d := range ds {
		if d.C != out.C || d.H != out.H || d.W != out.W {
			panic("data: MergeDatasets geometry mismatch")
		}
		for _, s := range d.Train {
			out.Train = append(out.Train, Sample{X: s.X, Y: s.Y + offset})
		}
		for _, s := range d.Test {
			out.Test = append(out.Test, Sample{X: s.X, Y: s.Y + offset})
		}
		offset += d.NumClasses
	}
	out.NumClasses = offset
	return out
}

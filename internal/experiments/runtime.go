// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment has a structured result (for tests and
// benches) and a printer that emits the same rows/series the paper reports.
// The Scale knob selects between the paper's task/client counts (Full) and
// a laptop-sized configuration (CI) that preserves comparative orderings.
package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Runtime bundles the training-protocol constants for one run.
type Runtime struct {
	Clients    int
	Rounds     int
	LocalIters int
	BatchSize  int
	LR         float64
	LRDecay    float64
	Bandwidth  float64 // bytes/second (paper default: 1 MB/s)
	Width      int
	MemScale   float64
}

// paperRounds holds §V-B's per-workload aggregation-round counts.
var paperRounds = map[string]int{
	"CIFAR100": 15, "FC100": 15, "CORe50": 15, "MiniImageNet": 10, "TinyImageNet": 5,
}

// paperLR holds §V-B's per-workload learning rates and decay rates.
var paperLR = map[string][2]float64{
	"CIFAR100": {0.001, 1e-4}, "FC100": {0.001, 1e-4}, "CORe50": {0.001, 1e-4},
	"MiniImageNet": {0.0008, 1e-5}, "TinyImageNet": {0.0008, 1e-5},
}

// RuntimeFor derives the protocol constants for a dataset family at a scale.
func RuntimeFor(f data.Family, scale data.Scale) Runtime {
	if scale == data.Full {
		lr := paperLR[f.Name]
		if lr[0] == 0 {
			lr = [2]float64{0.001, 1e-4}
		}
		r := paperRounds[f.Name]
		if r == 0 {
			r = 10
		}
		return Runtime{
			Clients: 20, Rounds: r, LocalIters: 25, BatchSize: 16,
			LR: lr[0], LRDecay: lr[1], Bandwidth: 1024 * 1024, Width: 1,
		}
	}
	// CI scale: few clients, short rounds, higher LR so learning is visible
	// within the shrunken budget.
	return Runtime{
		Clients: 4, Rounds: 2, LocalIters: 2, BatchSize: 8,
		LR: 0.02, LRDecay: 1e-4, Bandwidth: 1024 * 1024, Width: 1,
	}
}

// ArchFor returns the §V-A model for a dataset family: the 6-layer CNN for
// CIFAR100/FC100/CORe50, ResNet-18 for Mini/TinyImageNet.
func ArchFor(f data.Family) string {
	switch f.Name {
	case "MiniImageNet", "TinyImageNet":
		return "ResNet18"
	default:
		return "SixCNN"
	}
}

// AllocFor returns the §V-A class and sample allocation at a scale: the
// paper's at Full scale, CIAlloc's larger fractions at CI scale.
func AllocFor(scale data.Scale, seed uint64) data.AllocConfig {
	if scale == data.CI {
		return data.CIAlloc(seed)
	}
	return data.DefaultAlloc(seed)
}

// fedKNOWOptions scales FedKNOW's hyperparameters (§V-B: ρ = 10 %, k = 10).
func fedKNOWOptions(scale data.Scale) core.Options {
	opts := core.DefaultOptions()
	if scale == data.CI {
		opts.K = 3
		opts.FinetuneIters = 1
		opts.SelectEvery = 3
	}
	return opts
}

// MethodFactory resolves a method name (FedKNOW or any §V-A baseline) to a
// strategy factory. Unknown names panic: experiment specs are static.
func MethodFactory(name string, scale data.Scale) fed.Factory {
	if name == "FedKNOW" {
		return core.Factory(fedKNOWOptions(scale))
	}
	if f, ok := baselines.Registry[name]; ok {
		return f
	}
	panic("experiments: unknown method " + name)
}

// AllMethods is the paper's presentation order: FedKNOW then the 11
// baselines.
var AllMethods = append([]string{"FedKNOW"}, baselines.Names...)

// builderFor returns the model builder for an architecture and geometry.
func builderFor(arch string, numClasses, inC, inH, inW, width int) func(*tensor.RNG) *model.Model {
	return func(rng *tensor.RNG) *model.Model {
		return model.MustBuild(arch, numClasses, inC, inH, inW, width, rng)
	}
}

// federation is one prepared §V workload: a dataset split into tasks, the
// protocol constants and model it trains with, the cluster its clients run
// on, and their task sequences. A harness takes newFederation's default,
// departs from it where the paper does, and calls federate.
type federation struct {
	ds      *data.Dataset
	tasks   []data.Task
	rt      Runtime
	arch    string
	alloc   data.AllocConfig
	cluster *device.Cluster
	// clients, when set, is federated in place of the tuned rt.Clients: the
	// scalability studies (Figs. 7 and 8) fix their cohort sizes.
	clients int
	seqs    [][]data.ClientTask
}

// newFederation is fam's default §V workload at opt.Scale, not yet
// federated: its dataset, RuntimeFor, ArchFor, AllocFor and the 20-Jetson
// cluster.
func newFederation(opt Options, fam data.Family) *federation {
	ds, tasks := fam.Build(opt.Scale, opt.Seed)
	return &federation{ds: ds, tasks: tasks, rt: RuntimeFor(fam, opt.Scale),
		arch: ArchFor(fam), alloc: AllocFor(opt.Scale, opt.Seed+1), cluster: device.Jetson20()}
}

// federate applies opt.Tune and deals the tasks out to the clients.
func (f *federation) federate(opt Options) *federation {
	opt.tune(&f.rt)
	n := f.rt.Clients
	if f.clients > 0 {
		n = f.clients
	}
	f.seqs = data.Federate(f.tasks, n, f.alloc)
	return f
}

// train runs one labelled strategy on a prepared federation and returns the
// engine result; every harness trains through it. It is a variable so that
// tests can see what a harness prepares without training it.
var train = func(opt Options, f *federation, label string, factory fed.Factory) *fed.Result {
	cfg := fed.Config{
		Method: label, Rounds: f.rt.Rounds, LocalIters: f.rt.LocalIters,
		BatchSize: f.rt.BatchSize, LR: f.rt.LR, LRDecay: f.rt.LRDecay,
		NumClasses: f.ds.NumClasses, Bandwidth: f.rt.Bandwidth, MemScale: f.rt.MemScale,
		Seed: opt.Seed, Parallelism: opt.Parallelism, Shards: opt.Shards,
		Scheduler: opt.Scheduler, SyncEvict: opt.SyncEvict,
		Async: fed.AsyncConfig{CommitEvery: opt.AsyncCommitK,
			MaxStaleness: opt.MaxStaleness, StalenessAlpha: opt.StalenessAlpha},
	}
	e := fed.NewEngine(cfg, f.cluster, f.seqs,
		builderFor(f.arch, f.ds.NumClasses, f.ds.C, f.ds.H, f.ds.W, f.rt.Width), factory)
	if opt.Observer != nil {
		e.SetObserver(opt.Observer)
	}
	return e.Run()
}

// perTask plots x against y over every task point of r.
func perTask(label string, r *fed.Result, x, y func(fed.TaskPoint) float64) Series {
	s := Series{Label: label}
	for _, tp := range r.PerTask {
		s.X = append(s.X, x(tp))
		s.Y = append(s.Y, y(tp))
	}
	return s
}

// The task-point coordinates the figures plot.
func taskNumber(tp fed.TaskPoint) float64  { return float64(tp.TaskIdx + 1) }
func simHours(tp fed.TaskPoint) float64    { return tp.SimHours }
func avgAccuracy(tp fed.TaskPoint) float64 { return tp.AvgAccuracy }
func forgetting(tp fed.TaskPoint) float64  { return tp.ForgettingRate }

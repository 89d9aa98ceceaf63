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
	Arch       string // model architecture (§V-A picks one per dataset)
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
			LR: lr[0], LRDecay: lr[1], Bandwidth: 1024 * 1024, Width: 1, Arch: archFor(f),
		}
	}
	// CI scale: few clients, short rounds, higher LR so learning is visible
	// within the shrunken budget.
	return Runtime{
		Clients: 4, Rounds: 2, LocalIters: 2, BatchSize: 8,
		LR: 0.02, LRDecay: 1e-4, Bandwidth: 1024 * 1024, Width: 1, Arch: archFor(f),
	}
}

// archFor returns the §V-A model for a dataset family: the 6-layer CNN for
// CIFAR100/FC100/CORe50, ResNet-18 for Mini/TinyImageNet.
func archFor(f data.Family) string {
	switch f.Name {
	case "MiniImageNet", "TinyImageNet":
		return "ResNet18"
	default:
		return "SixCNN"
	}
}

// allocFor returns the §V-A class and sample allocation at a scale: the
// paper's at Full scale, CIAlloc's larger fractions at CI scale.
func allocFor(scale data.Scale, seed uint64) data.AllocConfig {
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

// Federation is one prepared §V workload: a dataset split into tasks, the
// protocol constants and model it trains with, the cluster its clients run
// on, and their task sequences. A harness takes NewFederation's default,
// departs from it where the paper does, and calls Federate; every run of it
// is configured by Config and trained by Run, and a wire client of it is
// built by Client.
type Federation struct {
	ds      *data.Dataset
	tasks   []data.Task
	rt      Runtime
	alloc   data.AllocConfig
	cluster *device.Cluster
	// clients, when set, is federated in place of the tuned rt.Clients: the
	// scalability studies (Figs. 7 and 8) fix their cohort sizes.
	clients int
	seqs    [][]data.ClientTask
}

// NewFederation is fam's default §V workload at opt.Scale, not yet
// federated: its dataset, RuntimeFor (architecture included), allocFor and
// the 20-Jetson cluster.
func NewFederation(opt Options, fam data.Family) *Federation {
	ds, tasks := fam.Build(opt.Scale, opt.Seed)
	return &Federation{ds: ds, tasks: tasks, rt: RuntimeFor(fam, opt.Scale),
		alloc: allocFor(opt.Scale, opt.Seed+1), cluster: device.Jetson20()}
}

// Federate applies opt.Tune and deals the tasks out to the clients.
func (f *Federation) Federate(opt Options) *Federation {
	opt.tune(&f.rt)
	n := f.rt.Clients
	if f.clients > 0 {
		n = f.clients
	}
	f.seqs = data.Federate(f.tasks, n, f.alloc)
	return f
}

// Runtime returns the federation's protocol constants, tuned once Federate
// has run.
func (f *Federation) Runtime() Runtime { return f.rt }

// Tasks returns the number of tasks every client learns in sequence.
func (f *Federation) Tasks() int { return len(f.tasks) }

// Config is the engine configuration of one labelled run on f: the tuned
// protocol constants with opt's seed, parallelism, fold shards and
// scheduler.
func (f *Federation) Config(opt Options, label string) fed.Config {
	return fed.Config{
		Method: label, Rounds: f.rt.Rounds, LocalIters: f.rt.LocalIters,
		BatchSize: f.rt.BatchSize, LR: f.rt.LR, LRDecay: f.rt.LRDecay,
		NumClasses: f.ds.NumClasses, Bandwidth: f.rt.Bandwidth, MemScale: f.rt.MemScale,
		Seed: opt.Seed, Parallelism: opt.Parallelism, Shards: opt.Shards,
		Scheduler: opt.Scheduler, SyncEvict: opt.SyncEvict,
		Async: fed.AsyncConfig{CommitEvery: opt.AsyncCommitK,
			MaxStaleness: opt.MaxStaleness, StalenessAlpha: opt.StalenessAlpha},
	}
}

// Run trains every client of f in-process under cfg, streaming progress to
// observer when it is not nil, and returns the engine result.
func (f *Federation) Run(cfg fed.Config, factory fed.Factory, observer fed.RoundObserver) *fed.Result {
	e := fed.NewEngine(cfg, f.cluster, f.seqs, f.builder(), factory)
	if observer != nil {
		e.SetObserver(observer)
	}
	return e.Run()
}

// Client builds seat id's wire client under cfg: that seat's task sequence
// and device, and the federation's model.
func (f *Federation) Client(cfg fed.Config, id int, factory fed.Factory) *fed.Client {
	return fed.NewWireClient(cfg, id, len(f.seqs), f.cluster.Devices[id%f.cluster.Size()],
		f.seqs[id], f.builder(), factory)
}

// builder returns the model builder for f's architecture and geometry.
func (f *Federation) builder() func(*tensor.RNG) *model.Model {
	arch, ds, width := f.rt.Arch, f.ds, f.rt.Width
	return func(rng *tensor.RNG) *model.Model {
		return model.MustBuild(arch, ds.NumClasses, ds.C, ds.H, ds.W, width, rng)
	}
}

// train runs one labelled strategy on a prepared federation and returns the
// engine result; every harness trains through it. It is a variable so that
// tests can see what a harness prepares without training it.
var train = func(opt Options, f *Federation, label string, factory fed.Factory) *fed.Result {
	return f.Run(f.Config(opt, label), factory, opt.Observer)
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

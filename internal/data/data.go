// Package data provides the continual-learning benchmarks. The paper
// evaluates on CIFAR-100, FC100, CORe50, MiniImageNet and TinyImageNet;
// those are external downloads this offline module cannot fetch, so each is
// replaced by a deterministic synthetic family with the same task structure
// (class counts, tasks × classes-per-task, train/test split) and a
// per-family visual style. See DESIGN.md ("Substitutions") for why this
// preserves the evaluation's comparative shape.
//
// Images are CHW float32. Every class has a structured prototype (a mixture
// of oriented gratings, colour fields and Gaussian blobs seeded by the class
// id); samples are the prototype plus Gaussian pixel noise and a small
// random translation, so classifiers must learn genuine features and task
// switches cause genuine forgetting.
package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Sample is one labelled image. Y is the global class id within the dataset.
type Sample struct {
	X []float32
	Y int
}

// Dataset is a full benchmark: all classes, train and test splits.
type Dataset struct {
	Name       string
	NumClasses int
	C, H, W    int
	Train      []Sample
	Test       []Sample
}

// Config controls a synthetic family's generation.
type Config struct {
	Name          string
	NumClasses    int
	C, H, W       int
	TrainPerClass int
	TestPerClass  int
	Noise         float64 // pixel noise std relative to signal
	Shift         int     // max |translation| in pixels
	ProtoParts    int     // number of pattern components per prototype
	Seed          uint64
}

// Generate builds a synthetic dataset from the config.
func Generate(cfg Config) *Dataset {
	if cfg.C == 0 {
		cfg.C = 3
	}
	if cfg.H == 0 {
		cfg.H = 16
	}
	if cfg.W == 0 {
		cfg.W = 16
	}
	if cfg.ProtoParts == 0 {
		cfg.ProtoParts = 3
	}
	rng := tensor.NewRNG(cfg.Seed)
	d := &Dataset{Name: cfg.Name, NumClasses: cfg.NumClasses, C: cfg.C, H: cfg.H, W: cfg.W}
	for class := 0; class < cfg.NumClasses; class++ {
		proto := classPrototype(rng.Fork(uint64(class)+1), cfg)
		sr := rng.Fork(uint64(class) + 100003)
		for i := 0; i < cfg.TrainPerClass; i++ {
			d.Train = append(d.Train, Sample{X: perturb(sr, proto, cfg), Y: class})
		}
		for i := 0; i < cfg.TestPerClass; i++ {
			d.Test = append(d.Test, Sample{X: perturb(sr, proto, cfg), Y: class})
		}
	}
	return d
}

// classPrototype builds a structured per-class pattern: a few oriented
// sinusoidal gratings plus Gaussian blobs, per channel. Classes differ in
// frequency, orientation, blob placement and channel mixture, which gives
// nearby class ids unrelated prototypes.
func classPrototype(r *tensor.RNG, cfg Config) []float32 {
	p := make([]float32, cfg.C*cfg.H*cfg.W)
	for part := 0; part < cfg.ProtoParts; part++ {
		freq := 0.5 + 2.5*r.Float64()
		theta := 2 * math.Pi * r.Float64()
		phase := 2 * math.Pi * r.Float64()
		amp := 0.4 + 0.6*r.Float64()
		cx, cy := r.Float64()*float64(cfg.W), r.Float64()*float64(cfg.H)
		sigma := 1.5 + 3*r.Float64()
		chanW := make([]float64, cfg.C)
		for c := range chanW {
			chanW[c] = r.Norm()
		}
		ct, st := math.Cos(theta), math.Sin(theta)
		for c := 0; c < cfg.C; c++ {
			base := c * cfg.H * cfg.W
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					u := (float64(x)*ct + float64(y)*st) * freq * 2 * math.Pi / float64(cfg.W)
					grat := math.Sin(u + phase)
					dx, dy := float64(x)-cx, float64(y)-cy
					blob := math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
					p[base+y*cfg.W+x] += float32(amp * chanW[c] * (0.6*grat + 0.8*blob))
				}
			}
		}
	}
	return p
}

// perturb produces one sample: translated prototype plus pixel noise.
func perturb(r *tensor.RNG, proto []float32, cfg Config) []float32 {
	out := make([]float32, len(proto))
	dx, dy := 0, 0
	if cfg.Shift > 0 {
		dx = r.Intn(2*cfg.Shift+1) - cfg.Shift
		dy = r.Intn(2*cfg.Shift+1) - cfg.Shift
	}
	for c := 0; c < cfg.C; c++ {
		base := c * cfg.H * cfg.W
		for y := 0; y < cfg.H; y++ {
			sy := y + dy
			for x := 0; x < cfg.W; x++ {
				sx := x + dx
				var v float32
				if sy >= 0 && sy < cfg.H && sx >= 0 && sx < cfg.W {
					v = proto[base+sy*cfg.W+sx]
				}
				out[base+y*cfg.W+x] = v + float32(r.Norm()*cfg.Noise)
			}
		}
	}
	return out
}

// Task is one continual-learning task: a subset of classes with the samples
// belonging to them. Labels stay global (the model has one head over all
// dataset classes; evaluation is task-aware via the Classes list).
type Task struct {
	ID      int
	Classes []int
	Train   []Sample
	Test    []Sample
}

// SplitTasks partitions a dataset into numTasks tasks of consecutive class
// ranges, following the benchmark protocol of the paper (§V-A: data points
// are equally split into each task and class).
func SplitTasks(d *Dataset, numTasks int) []Task {
	if d.NumClasses%numTasks != 0 {
		panic(fmt.Sprintf("data: %d classes not divisible by %d tasks", d.NumClasses, numTasks))
	}
	per := d.NumClasses / numTasks
	tasks := make([]Task, numTasks)
	for t := range tasks {
		tasks[t].ID = t
		for c := t * per; c < (t+1)*per; c++ {
			tasks[t].Classes = append(tasks[t].Classes, c)
		}
	}
	classTask := make([]int, d.NumClasses)
	for t := range tasks {
		for _, c := range tasks[t].Classes {
			classTask[c] = t
		}
	}
	for _, s := range d.Train {
		t := classTask[s.Y]
		tasks[t].Train = append(tasks[t].Train, s)
	}
	for _, s := range d.Test {
		t := classTask[s.Y]
		tasks[t].Test = append(tasks[t].Test, s)
	}
	return tasks
}

// Batch assembles samples[idx] into an input tensor and label slice.
func Batch(samples []Sample, idx []int, c, h, w int) (*tensor.Tensor, []int) {
	n := len(idx)
	x := tensor.New(n, c, h, w)
	labels := make([]int, n)
	imgLen := c * h * w
	for i, j := range idx {
		copy(x.Data[i*imgLen:(i+1)*imgLen], samples[j].X)
		labels[i] = samples[j].Y
	}
	return x, labels
}

// Scale selects the experiment size: Full mirrors the paper's sample counts
// (slow, offline runs); CI shrinks everything so tests and benches finish on
// a laptop while preserving comparative behaviour.
type Scale int

// Scales.
const (
	CI Scale = iota
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "ci"
}

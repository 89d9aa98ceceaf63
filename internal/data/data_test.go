package data

import (
	"testing"

	"repro/internal/tensor"
)

func TestGenerateCountsAndShapes(t *testing.T) {
	d := Generate(Config{Name: "t", NumClasses: 5, TrainPerClass: 7, TestPerClass: 3,
		C: 3, H: 8, W: 8, Noise: 0.2, Seed: 1})
	if len(d.Train) != 35 || len(d.Test) != 15 {
		t.Fatalf("train %d test %d", len(d.Train), len(d.Test))
	}
	for _, s := range d.Train {
		if len(s.X) != 3*8*8 {
			t.Fatal("sample length mismatch")
		}
		if s.Y < 0 || s.Y >= 5 {
			t.Fatalf("label out of range: %d", s.Y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "t", NumClasses: 3, TrainPerClass: 2, TestPerClass: 1,
		C: 1, H: 4, W: 4, Noise: 0.1, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a.Train {
		for j := range a.Train[i].X {
			if a.Train[i].X[j] != b.Train[i].X[j] {
				t.Fatal("generation must be deterministic for a fixed seed")
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := Config{Name: "t", NumClasses: 1, TrainPerClass: 1, TestPerClass: 0,
		C: 1, H: 4, W: 4, Seed: 1}
	a := Generate(cfg)
	cfg.Seed = 2
	b := Generate(cfg)
	same := true
	for j := range a.Train[0].X {
		if a.Train[0].X[j] != b.Train[0].X[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must give different data")
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Same-class samples must be closer to their own prototype mean than to
	// other classes' means — otherwise no model could learn the data.
	d := Generate(Config{Name: "t", NumClasses: 4, TrainPerClass: 20, TestPerClass: 5,
		C: 3, H: 8, W: 8, Noise: 0.3, Shift: 1, Seed: 3})
	dim := d.C * d.H * d.W
	means := make([][]float64, 4)
	counts := make([]int, 4)
	for i := range means {
		means[i] = make([]float64, dim)
	}
	for _, s := range d.Train {
		for j, v := range s.X {
			means[s.Y][j] += float64(v)
		}
		counts[s.Y]++
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range d.Test {
		best, bestD := -1, 1e300
		for c := range means {
			var dist float64
			for j, v := range s.X {
				dd := float64(v) - means[c][j]
				dist += dd * dd
			}
			if dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(d.Test)); acc < 0.75 {
		t.Fatalf("nearest-mean accuracy %v; classes not separable enough", acc)
	}
}

func TestSplitTasks(t *testing.T) {
	d := Generate(Config{Name: "t", NumClasses: 12, TrainPerClass: 2, TestPerClass: 1,
		C: 1, H: 4, W: 4, Seed: 1})
	tasks := SplitTasks(d, 4)
	if len(tasks) != 4 {
		t.Fatalf("%d tasks", len(tasks))
	}
	seen := map[int]bool{}
	for ti, task := range tasks {
		if len(task.Classes) != 3 {
			t.Fatalf("task %d has %d classes", ti, len(task.Classes))
		}
		for _, c := range task.Classes {
			if seen[c] {
				t.Fatalf("class %d in two tasks", c)
			}
			seen[c] = true
		}
		if len(task.Train) != 6 || len(task.Test) != 3 {
			t.Fatalf("task %d: train %d test %d", ti, len(task.Train), len(task.Test))
		}
		for _, s := range task.Train {
			found := false
			for _, c := range task.Classes {
				if s.Y == c {
					found = true
				}
			}
			if !found {
				t.Fatal("sample assigned to wrong task")
			}
		}
	}
}

func TestSplitTasksRequiresDivisibility(t *testing.T) {
	d := Generate(Config{Name: "t", NumClasses: 10, TrainPerClass: 1, TestPerClass: 0,
		C: 1, H: 2, W: 2, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible split")
		}
	}()
	SplitTasks(d, 3)
}

func TestBatch(t *testing.T) {
	samples := []Sample{
		{X: []float32{1, 2, 3, 4}, Y: 0},
		{X: []float32{5, 6, 7, 8}, Y: 1},
	}
	x, labels := Batch(samples, []int{1, 0}, 1, 2, 2)
	if x.Shape[0] != 2 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if x.Data[0] != 5 || x.Data[4] != 1 {
		t.Fatal("batch data order wrong")
	}
	if labels[0] != 1 || labels[1] != 0 {
		t.Fatal("labels wrong")
	}
}

func TestFamiliesStructure(t *testing.T) {
	cases := []struct {
		f       Family
		classes int
		tasks   int
		perTask int
	}{
		{CIFAR100, 100, 10, 10},
		{FC100, 100, 10, 10},
		{CORe50, 550, 11, 50},
		{MiniImageNet, 100, 10, 10},
		{TinyImageNet, 200, 20, 10},
		{SVHN, 10, 2, 5},
	}
	for _, c := range cases {
		if c.f.NumClasses != c.classes || c.f.NumTasks != c.tasks {
			t.Fatalf("%s: %d classes %d tasks", c.f.Name, c.f.NumClasses, c.f.NumTasks)
		}
		if c.f.NumClasses/c.f.NumTasks != c.perTask {
			t.Fatalf("%s: %d classes per task", c.f.Name, c.f.NumClasses/c.f.NumTasks)
		}
	}
}

func TestFamilyByName(t *testing.T) {
	f, ok := FamilyByName("CORe50")
	if !ok || f.NumClasses != 550 {
		t.Fatal("FamilyByName CORe50 failed")
	}
	if _, ok := FamilyByName("nope"); ok {
		t.Fatal("unknown family must not resolve")
	}
}

func TestFamilyBuildCI(t *testing.T) {
	ds, tasks := CIFAR100.Build(CI, 1)
	if len(tasks) != 10 {
		t.Fatalf("CI scale must keep task count: %d", len(tasks))
	}
	if ds.NumClasses != 40 {
		t.Fatalf("CI classes = %d", ds.NumClasses)
	}
}

func TestFamilyBuildFull(t *testing.T) {
	ds, tasks := SVHN.Build(Full, 1)
	if ds.NumClasses != 10 || len(tasks) != 2 {
		t.Fatalf("full SVHN: %d classes %d tasks", ds.NumClasses, len(tasks))
	}
}

func TestFederateNonIID(t *testing.T) {
	_, tasks := CIFAR100.Build(CI, 2)
	clients := Federate(tasks, 6, CIAlloc(5))
	if len(clients) != 6 {
		t.Fatalf("%d clients", len(clients))
	}
	ordersDiffer := false
	for ci, seq := range clients {
		if len(seq) != len(tasks) {
			t.Fatalf("client %d has %d tasks", ci, len(seq))
		}
		for _, ct := range seq {
			if len(ct.Classes) < 2 || len(ct.Classes) > 3 {
				t.Fatalf("client %d task %d: %d classes", ci, ct.TaskID, len(ct.Classes))
			}
			if len(ct.Train) == 0 || len(ct.Test) == 0 {
				t.Fatalf("client %d task %d empty", ci, ct.TaskID)
			}
			for _, s := range ct.Train {
				ok := false
				for _, c := range ct.Classes {
					if s.Y == c {
						ok = true
					}
				}
				if !ok {
					t.Fatal("train sample outside client classes")
				}
			}
		}
		if ci > 0 && !sameOrder(clients[0], seq) {
			ordersDiffer = true
		}
	}
	if !ordersDiffer {
		t.Fatal("clients must have distinct task sequences")
	}
}

func sameOrder(a, b []ClientTask) bool {
	for i := range a {
		if a[i].TaskID != b[i].TaskID {
			return false
		}
	}
	return true
}

func TestFederateDeterministic(t *testing.T) {
	_, tasks := SVHN.Build(CI, 2)
	a := Federate(tasks, 3, CIAlloc(9))
	b := Federate(tasks, 3, CIAlloc(9))
	for ci := range a {
		for ti := range a[ci] {
			if len(a[ci][ti].Train) != len(b[ci][ti].Train) {
				t.Fatal("allocation must be deterministic")
			}
		}
	}
}

func TestFederateHeterogeneity(t *testing.T) {
	// Different clients should get different class subsets for the same
	// task — the whole point of the non-IID allocation.
	_, tasks := CIFAR100.Build(CI, 3)
	clients := Federate(tasks, 8, CIAlloc(11))
	task0Classes := map[string]bool{}
	for _, seq := range clients {
		for _, ct := range seq {
			if ct.TaskID == 0 {
				key := ""
				for _, c := range ct.Classes {
					key += string(rune('A' + c%26))
				}
				task0Classes[key] = true
			}
		}
	}
	if len(task0Classes) < 2 {
		t.Fatal("all clients got identical class subsets")
	}
}

func TestScaleString(t *testing.T) {
	if CI.String() != "ci" || Full.String() != "full" {
		t.Fatal("Scale strings")
	}
}

func TestPerturbShiftStaysFinite(t *testing.T) {
	r := tensor.NewRNG(1)
	proto := make([]float32, 3*4*4)
	r.FillNorm(proto, 1)
	cfg := Config{C: 3, H: 4, W: 4, Noise: 0.1, Shift: 3}
	out := perturb(r, proto, cfg)
	if len(out) != len(proto) {
		t.Fatal("perturb length mismatch")
	}
}

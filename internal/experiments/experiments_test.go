package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
)

func ciOpts(seed uint64) Options {
	return Options{Scale: data.CI, Seed: seed}
}

func TestRuntimeForFullMatchesPaper(t *testing.T) {
	rt := RuntimeFor(data.CIFAR100, data.Full)
	if rt.Clients != 20 || rt.Rounds != 15 || rt.LocalIters != 25 {
		t.Fatalf("CIFAR100 full runtime %+v", rt)
	}
	if rt.LR != 0.001 || rt.LRDecay != 1e-4 {
		t.Fatalf("CIFAR100 lr %v decay %v", rt.LR, rt.LRDecay)
	}
	rtT := RuntimeFor(data.TinyImageNet, data.Full)
	if rtT.Rounds != 5 || rtT.LR != 0.0008 || rtT.LRDecay != 1e-5 {
		t.Fatalf("TinyImageNet full runtime %+v", rtT)
	}
}

func TestArchSelection(t *testing.T) {
	if archFor(data.CIFAR100) != "SixCNN" || archFor(data.CORe50) != "SixCNN" {
		t.Fatal("first three datasets use the 6-layer CNN")
	}
	if archFor(data.MiniImageNet) != "ResNet18" || archFor(data.TinyImageNet) != "ResNet18" {
		t.Fatal("ImageNet variants use ResNet-18")
	}
}

// TestTuneReachesConfig: a Tune that sets the client count, rounds,
// iterations, bandwidth and architecture yields a federation, a Config and a
// client model with exactly those values — the path fedknow-train's flags
// take.
func TestTuneReachesConfig(t *testing.T) {
	opt := ciOpts(1)
	opt.Tune = func(rt *Runtime) {
		rt.Clients, rt.Rounds, rt.LocalIters = 3, 5, 7
		rt.Bandwidth, rt.Arch = 51200, "ShuffleNetV2"
	}
	f := NewFederation(opt, data.CIFAR100).Federate(opt)
	if rt := f.Runtime(); len(f.seqs) != 3 || rt.Clients != 3 || rt.Arch != "ShuffleNetV2" {
		t.Fatalf("federation: %d task sequences, runtime %+v", len(f.seqs), rt)
	}
	if name := f.builder()(nil).Name; name != "ShuffleNetV2" {
		t.Fatalf("clients build %s", name)
	}
	cfg := f.Config(opt, "FedAvg")
	if cfg.Method != "FedAvg" || cfg.Rounds != 5 || cfg.LocalIters != 7 || cfg.Bandwidth != 51200 {
		t.Fatalf("config %+v", cfg)
	}
}

func TestMethodFactoryCoversAllMethods(t *testing.T) {
	if len(AllMethods) != 12 {
		t.Fatalf("%d methods, want 12 (FedKNOW + 11 baselines)", len(AllMethods))
	}
	for _, m := range AllMethods {
		if MethodFactory(m, data.CI) == nil {
			t.Fatalf("no factory for %s", m)
		}
	}
}

func TestFig4UnknownPanel(t *testing.T) {
	if _, err := Fig4("z", ciOpts(1)); err == nil {
		t.Fatal("unknown panel must error")
	}
}

func TestFig4MixedPanelStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	var buf bytes.Buffer
	opt := ciOpts(2)
	opt.Out = &buf
	res, err := Fig4("d", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 3 {
		t.Fatalf("30-device panel compares 3 methods, got %d", len(res.Methods))
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) != 10 { // CIFAR100 keeps 10 tasks at CI scale
			t.Fatalf("series %s has %d points", s.Label, len(s.X))
		}
		// Time axis must be increasing.
		for i := 1; i < len(s.X); i++ {
			if s.X[i] <= s.X[i-1] {
				t.Fatalf("series %s time axis not increasing", s.Label)
			}
		}
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("accuracy %v out of range", y)
			}
		}
	}
	if !strings.Contains(buf.String(), "Fig.4(d)") {
		t.Fatal("printer did not emit the panel")
	}
}

func TestFig5ShapeAndReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	res, err := Fig5(ciOpts(3), []data.Family{data.CIFAR100, data.FC100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 {
		t.Fatalf("datasets %v", res.Datasets)
	}
	for _, d := range res.Datasets {
		fk := res.VolumeGB[d]["FedKNOW"]
		fw := res.VolumeGB[d]["FedWEIT"]
		if fk <= 0 || fw <= 0 {
			t.Fatalf("%s volumes %v / %v", d, fk, fw)
		}
		// The paper's headline: FedWEIT moves more data than FedKNOW.
		if fw <= fk {
			t.Fatalf("%s: FedWEIT (%v GB) must exceed FedKNOW (%v GB)", d, fw, fk)
		}
	}
	if res.MeanReduction() <= 0 {
		t.Fatal("mean reduction must be positive")
	}
}

func TestFig6BandwidthScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	res, err := Fig6(ciOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, mdl := range []string{"6CNN", "ResNet18"} {
		for _, m := range []string{"FedKNOW", "FedWEIT"} {
			hours := res.Hours[mdl][m]
			if len(hours) != 8 {
				t.Fatalf("%s/%s: %d points", mdl, m, len(hours))
			}
			// Communication time decreases as bandwidth grows.
			for i := 1; i < len(hours); i++ {
				if hours[i] >= hours[i-1] {
					t.Fatalf("%s/%s: hours not decreasing with bandwidth", mdl, m)
				}
			}
		}
		// FedKNOW communicates less at every bandwidth.
		for i := range res.Hours[mdl]["FedKNOW"] {
			if res.Hours[mdl]["FedKNOW"][i] >= res.Hours[mdl]["FedWEIT"][i] {
				t.Fatalf("%s: FedKNOW must beat FedWEIT at every bandwidth", mdl)
			}
		}
	}
}

func TestFig7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	res, err := Fig7(ciOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTasks != 10 {
		t.Fatalf("CI task count = %d", res.NumTasks)
	}
	if len(res.Accuracy) != 3 || len(res.Forgetting) != 3 {
		t.Fatal("three methods expected")
	}
	for _, s := range res.Accuracy {
		if len(s.Y) != 10 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Y))
		}
	}
	for _, s := range res.Forgetting {
		for _, f := range s.Y {
			if f < 0 || f > 1 {
				t.Fatalf("forgetting %v out of range", f)
			}
		}
	}
}

func TestFig10SettingsComplete(t *testing.T) {
	settings := fig10Settings(data.CI)
	labels := map[string]bool{}
	for _, s := range settings {
		labels[s.Label] = true
	}
	for _, want := range []string{"GEM-10%", "GEM-100%", "FedWEIT-all", "FedWEIT-own",
		"FedKNOW-5%", "FedKNOW-10%", "FedKNOW-20%"} {
		if !labels[want] {
			t.Fatalf("missing setting %s", want)
		}
	}
}

// fast shrinks a CI runtime to the minimum that still exercises the
// protocol, for the heavyweight sweeps.
func fast(rt *Runtime) {
	rt.Rounds = 1
	rt.LocalIters = 2
	rt.Clients = 3
}

func TestTable1Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	opt := ciOpts(7)
	opt.Tune = fast
	res, err := Table1(opt, []data.Family{data.CIFAR100})
	if err != nil {
		t.Fatal(err)
	}
	imp := res.Improvement["CIFAR100"]
	if len(imp) != 10 {
		t.Fatalf("%d per-task improvements", len(imp))
	}
	if len(res.Table.Rows) != 10 {
		t.Fatalf("%d table rows", len(res.Table.Rows))
	}
	// MeanImprovement must agree with the raw slice.
	var s float64
	for _, v := range imp {
		s += v
	}
	if got := res.MeanImprovement("CIFAR100"); got != s/10 {
		t.Fatalf("MeanImprovement %v vs %v", got, s/10)
	}
}

// TestTable1ImprovementDeterministic feeds improvement baseline accuracies
// whose float sum depends on the order they are added in: one large value
// and ten that vanish when added to it one by one, but not when summed first.
// Every call must return the same bits.
func TestTable1ImprovementDeterministic(t *testing.T) {
	results := map[string]*fed.Result{}
	for i, m := range AllMethods {
		acc := 1e-16
		switch i {
		case 0: // FedKNOW
			acc = 0.5
		case len(AllMethods) / 2:
			acc = 1
		}
		results[m] = &fed.Result{PerTask: []fed.TaskPoint{{AvgAccuracy: acc}}}
	}
	want := math.Float64bits(improvement(results, 1)[0])
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(improvement(results, 1)[0]); got != want {
			t.Fatalf("call %d: improvement bits %#x, first call %#x", i, got, want)
		}
	}
}

// TestFullScaleFederations runs every harness at Full scale with training
// replaced by an empty result, and pins the federations they prepare: the
// client count, the cluster and the task count of the paper's §V runs.
func TestFullScaleFederations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Full-scale datasets; skipped in -short")
	}
	var got []*Federation
	defer func(prev func(Options, *Federation, string, fed.Factory) *fed.Result) { train = prev }(train)
	train = func(_ Options, f *Federation, _ string, _ fed.Factory) *fed.Result {
		if len(got) == 0 || got[len(got)-1] != f {
			got = append(got, f)
		}
		return &fed.Result{PerTask: make([]fed.TaskPoint, len(f.tasks))}
	}
	type shape struct {
		clients int
		cluster *device.Cluster
		tasks   int
	}
	jetson := shape{20, device.Jetson20(), 10}
	opt := Options{Scale: data.Full, Seed: 1}
	// Figs. 7 and 8 fix their cohorts: a tuned client count does not reach
	// them.
	pinned := opt
	pinned.Tune = func(rt *Runtime) { rt.Clients = 3 }
	fig4 := func(panel string) func() error {
		return func() error { _, err := Fig4(panel, opt); return err }
	}
	cases := []struct {
		name    string
		harness func() error
		want    []shape
	}{
		{"ablation", func() error { _, err := Ablation(opt); return err }, []shape{jetson}},
		{"fig4a", fig4("a"), []shape{jetson}},
		{"fig4d", fig4("d"), []shape{{30, device.Mixed30(), 10}}},
		{"fig4h", fig4("h"), []shape{{20, device.Jetson20(), 20}}},
		{"fig5", func() error { _, err := Fig5(opt, []data.Family{data.FC100}); return err }, []shape{jetson}},
		{"fig6", func() error { _, err := Fig6(opt); return err }, []shape{jetson, jetson}},
		{"fig7", func() error { _, err := Fig7(pinned); return err }, []shape{{20, device.Jetson20(), 80}}},
		{"fig8", func() error { _, err := Fig8(pinned); return err }, []shape{
			{50, device.Uniform(50, device.JetsonXavierNX), 10},
			{100, device.Uniform(100, device.JetsonXavierNX), 10}}},
		{"fig9", func() error { _, err := Fig9(opt, []string{"MobileNetV2"}); return err }, []shape{jetson}},
		{"fig10", func() error { _, err := Fig10(opt); return err }, []shape{jetson}},
		{"hyper", func() error { _, err := HyperSearch("FedKNOW", opt); return err }, []shape{{20, device.Jetson20(), 2}}},
		{"table1", func() error { _, err := Table1(opt, []data.Family{data.CORe50}); return err }, []shape{{20, device.Jetson20(), 11}}},
	}
	for _, c := range cases {
		got = nil
		if err := c.harness(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s prepared %d federations, want %d", c.name, len(got), len(c.want))
		}
		for i, f := range got {
			w := c.want[i]
			if len(f.seqs) != w.clients || !reflect.DeepEqual(f.cluster, w.cluster) || len(f.tasks) != w.tasks {
				t.Errorf("%s federation %d: %d clients on %d devices, %d tasks; want %d on %d, %d",
					c.name, i, len(f.seqs), f.cluster.Size(), len(f.tasks), w.clients, w.cluster.Size(), w.tasks)
			}
		}
	}
}

func TestFig8Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	opt := ciOpts(8)
	opt.Tune = fast
	res, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClientCounts) != 2 || len(res.Accuracy) != 2 {
		t.Fatal("two cluster scales expected")
	}
	for i := range res.ClientCounts {
		if len(res.Accuracy[i]) != 3 || len(res.Forgetting[i]) != 3 {
			t.Fatalf("scale %d: method series missing", i)
		}
	}
}

func TestFig9SubsetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	opt := ciOpts(9)
	opt.Tune = fast
	res, err := Fig9(opt, []string{"MobileNetV2", "SENet18"})
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range res.Models {
		for _, m := range res.Methods {
			if res.FinalAccuracy(arch, m) < 0 {
				t.Fatalf("%s/%s missing accuracy", arch, m)
			}
			if len(res.Series[arch][m].Y) != 10 {
				t.Fatalf("%s/%s series wrong length", arch, m)
			}
		}
	}
}

func TestHyperSearchFindsConfig(t *testing.T) {
	res, err := HyperSearch("FedAvg", ciOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Searched != 4 {
		t.Fatalf("CI grid is 2×2, searched %d", res.Searched)
	}
	if res.Best["lr"] == 0 {
		t.Fatal("no best lr selected")
	}
	if res.BestAcc <= 0 {
		t.Fatal("best accuracy must be positive")
	}
}

func TestAblationStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("full federated training run; skipped in -short")
	}
	opt := ciOpts(10)
	opt.Tune = fast
	res, err := Ablation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("%d variants", len(res.Variants))
	}
	for _, v := range res.Variants {
		if res.Accuracy[v] <= 0 {
			t.Fatalf("variant %s has no accuracy", v)
		}
		if q, g := res.QPFireRate[v], res.GuardFireRate[v]; q < 0 || q > 1 || g < 0 || g > 1 {
			t.Fatalf("variant %s: QP fire rate %v, guard fire rate %v", v, q, g)
		}
		if d := res.KnowledgeOverChance[v]; d < -1 || d > 1 {
			t.Fatalf("variant %s: knowledge accuracy minus chance %v", v, d)
		}
	}
	// The witnesses see the components the variants turn off.
	if res.QPFireRate["FedKNOW-full"] == 0 || res.QPFireRate["no-integrator"] != 0 {
		t.Fatalf("QP fire rates: full %v, no-integrator %v", res.QPFireRate["FedKNOW-full"], res.QPFireRate["no-integrator"])
	}
	if res.GuardFireRate["no-global-guard"] != 0 {
		t.Fatalf("guard fires without the guard: %v", res.GuardFireRate["no-global-guard"])
	}
}

// MeanReduction is FedKNOW's average communication saving versus FedWEIT
// across datasets (the paper reports 34.28 %).
func (r *Fig5Result) MeanReduction() float64 {
	var s float64
	n := 0
	for _, d := range r.Datasets {
		fw := r.VolumeGB[d]["FedWEIT"]
		if fw <= 0 {
			continue
		}
		s += (fw - r.VolumeGB[d]["FedKNOW"]) / fw
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// FinalAccuracy reads the last-task average accuracy of one model/method.
func (r *Fig9Result) FinalAccuracy(arch, method string) float64 {
	s := r.Series[arch][method]
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// MeanImprovement averages the per-task improvements of one dataset.
func (r *Table1Result) MeanImprovement(dataset string) float64 {
	imp := r.Improvement[dataset]
	if len(imp) == 0 {
		return 0
	}
	var s float64
	for _, v := range imp {
		s += v
	}
	return s / float64(len(imp))
}

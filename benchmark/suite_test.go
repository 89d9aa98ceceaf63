package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "updates_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m * 0.995, m * 1.005} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 0.8, m * 1.2} }
	cases := []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"within the bound", lower, steady(100), steady(108), verdictOK},
		{"slower beyond the bound", lower, steady(100), steady(115), verdictRegressed},
		{"faster is never a regression", lower, steady(100), steady(50), verdictOK},
		{"throughput down beyond the bound", higher, steady(100), steady(85), verdictRegressed},
		{"throughput up", higher, steady(100), steady(150), verdictOK},
		{"throughput down within the bound", higher, steady(100), steady(95), verdictOK},
		{"spread wider than the bound hides the answer", lower, noisy(100), steady(100), verdictUnresolved},
		{"a noisy candidate is unresolved, not regressed", lower, steady(100), noisy(130), verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if worse, _ := verdict(higher, steady(100), steady(80)); worse < 0.19 || worse > 0.21 {
		t.Errorf("a 20%% throughput drop reads as %.3f worse", worse)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		sf := suiteFile{Runs: map[string][]map[string]float64{}, Failed: map[string]int{}}
		for _, wl := range workloads {
			for r := 0; r < 5; r++ {
				run := map[string]float64{}
				for _, m := range endToEnd {
					v := 100 * (1 + 0.002*float64(r))
					if m.Name == "round_ms_p50" {
						v *= scale
					}
					run[m.Name] = v
				}
				sf.Runs[wl.Name] = append(sf.Runs[wl.Name], run)
			}
		}
		doc, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("b.json", 1), write("c.json", 1.5)

	var out bytes.Buffer
	notOK, err := compareFiles(&out, a, same)
	if err != nil || notOK {
		t.Fatalf("A/A compare: notOK=%v err=%v\n%s", notOK, err, out.String())
	}
	if rows := strings.Count(out.String(), verdictOK); rows != len(workloads)*len(endToEnd) {
		t.Errorf("%d ok rows, want one per (workload, metric) = %d\n%s", rows, len(workloads)*len(endToEnd), out.String())
	}
	out.Reset()
	notOK, err = compareFiles(&out, a, slow)
	if err != nil || !notOK {
		t.Fatalf("A/B compare with a 50%% slower p50: notOK=%v err=%v", notOK, err)
	}
	if got := strings.Count(out.String(), verdictRegressed); got != len(workloads) {
		t.Errorf("%d regressed rows, want %d (round_ms_p50 on every workload)\n%s", got, len(workloads), out.String())
	}
}

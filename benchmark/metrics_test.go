package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The driver's limits on names and units.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTablesMeetTheContract(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if !unitName.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
		if !unitName.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		_, train := trainSpecs[w.Name]
		_, ingest := ingestSpecs[w.Name]
		if train == ingest {
			t.Errorf("workload %s must have exactly one spec", w.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// BENCHMARK.json is rendered from the tables (go run . -manifest); a metric
// added to one and not the other would make the driver and the program
// disagree about what a run prints.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from the tables in metrics.go; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

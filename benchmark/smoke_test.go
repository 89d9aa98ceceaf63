package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads at toy size, untraced and traced, through
// the same code path the driver uses, so the benchmark cannot rot unnoticed.
// It opens TCP connections on 127.0.0.1 and takes several seconds, so -short
// skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass uses the network and takes seconds")
	}
	home := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: wl.Name, seed: 3, seconds: 0.05, trace: trace, smoke: true, home: home}
			var stdout bytes.Buffer
			if err := runOne(cfg, &stdout, io.Discard); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out runOutput
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", wl.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want exactly the %d declared", wl.Name, trace, len(out.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := out.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", wl.Name, trace, m.Name, v.Unit, m.Unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g must never be 0", wl.Name, m.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(home, "out", "trace_"+wl.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", wl.Name, err)
				}
			}
		}
	}
	if left, _ := os.ReadDir(filepath.Join(home, ".work")); len(left) != 0 {
		t.Errorf(".work still holds %d entries after the runs", len(left))
	}
}

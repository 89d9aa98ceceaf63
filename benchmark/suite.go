package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// suiteFile is what a suite run writes and -compare reads: for every
// workload the end-to-end metrics of each untraced run, and the per-layer
// metrics of the traced run.
type suiteFile struct {
	Stamp   stamp                           `json:"stamp"`
	Seconds float64                         `json:"seconds"`
	Smoke   bool                            `json:"smoke,omitempty"`
	Runs    map[string][]map[string]float64 `json:"runs"`
	Layers  map[string]map[string]float64   `json:"layers"`
	// Attempted and Failed are summed over every run of the workload.
	Attempted map[string]int `json:"attempted"`
	Failed    map[string]int `json:"failed"`
}

// digestPrefix starts the standard-output line on which a training run
// prints its result digest, so the suite can compare repeats.
const digestPrefix = "result_digest "

// runChild runs one workload once in a fresh process — this binary
// re-executed — and parses the JSON object its standard output ends with.
// The child's diagnostics pass through to our standard error.
func runChild(cfg runConfig, workload string, trace bool) (*runOutput, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", t, "-home", cfg.home}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("%s (trace %s): %w", workload, t, err)
	}
	var last, digest string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
			if d, ok := strings.CutPrefix(line, digestPrefix); ok {
				digest = d
			}
		}
	}
	var out runOutput
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, "", fmt.Errorf("%s (trace %s): last output line is not a result: %w", workload, t, err)
	}
	return &out, digest, nil
}

// runSuite runs every workload repeats times untraced and once traced, one
// child process per run, prints every metric by name with its unit and
// sample count, and writes out/suite_seed<n>.json.
func runSuite(cfg runConfig, repeats int, w io.Writer) error {
	if repeats < 1 {
		return fmt.Errorf("-repeats must be at least 1, got %d", repeats)
	}
	if err := os.MkdirAll(filepath.Join(cfg.home, ".work"), 0o755); err != nil {
		return err
	}
	sf := suiteFile{
		Stamp: newStamp(filepath.Join(cfg.home, ".work"), cfg.seed), Seconds: cfg.seconds, Smoke: cfg.smoke,
		Runs: map[string][]map[string]float64{}, Layers: map[string]map[string]float64{},
		Attempted: map[string]int{}, Failed: map[string]int{},
	}
	fmt.Fprintf(w, "stamp %s\n", sf.Stamp)
	for _, wl := range workloads {
		var digests []string
		tally := func(out *runOutput) map[string]float64 {
			sf.Attempted[wl.Name] += out.Attempted
			sf.Failed[wl.Name] += out.Failed
			vals := map[string]float64{}
			for name, v := range out.Metrics {
				vals[name] = v.Value
			}
			return vals
		}
		for r := 0; r < repeats; r++ {
			out, digest, err := runChild(cfg, wl.Name, false)
			if err != nil {
				return err
			}
			sf.Runs[wl.Name] = append(sf.Runs[wl.Name], tally(out))
			if digest != "" {
				digests = append(digests, digest)
			}
		}
		// Lockstep training is bitwise reproducible: every repeat at the seed
		// must report the same result digest.
		for _, d := range digests {
			sf.Attempted[wl.Name]++
			if d != digests[0] {
				sf.Failed[wl.Name]++
				fmt.Fprintf(w, "FAIL %s: result digest %s differs from the first repeat's %s\n", wl.Name, d, digests[0])
			}
		}
		out, _, err := runChild(cfg, wl.Name, true)
		if err != nil {
			return err
		}
		sf.Layers[wl.Name] = tally(out)

		fmt.Fprintf(w, "\n== %s ==\n", wl.Name)
		for _, m := range endToEnd {
			xs := column(sf.Runs[wl.Name], m.Name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-36s %16.6g %-8s n=%d  q1=%.6g q3=%.6g\n", m.Name, median(xs), m.Unit, len(xs), q1, q3)
		}
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-36s %16.6g %-8s traced\n", m.Name, sf.Layers[wl.Name][m.Name], m.Unit)
		}
		a, f := sf.Attempted[wl.Name], sf.Failed[wl.Name]
		fmt.Fprintf(w, "%-36s %16.6g %-8s attempted=%d failed=%d\n", "fail_ratio", float64(f)/float64(a), "ratio", a, f)
	}
	doc, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.home, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("suite_seed%d.json", cfg.seed))
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", path)
	for name, f := range sf.Failed {
		if f > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, f, sf.Attempted[name])
		}
	}
	return nil
}

// column collects one metric over a workload's runs.
func column(runs []map[string]float64, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// Verdicts of one compared (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges a metric's candidate runs against its base runs. The change
// is how much worse the candidate's median is, as a share of the base's.
// When either side's inter-quartile spread is wider than the bound the
// question cannot be answered by these runs — unresolved, never "unchanged".
func verdict(m metricDef, base, cand []float64) (worse float64, v string) {
	mb, mc := median(base), median(cand)
	if mb != 0 {
		worse = (mc - mb) / mb
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread(base) > m.Bound || spread(cand) > m.Bound:
		v = verdictUnresolved
	case worse > m.Bound:
		v = verdictRegressed
	default:
		v = verdictOK
	}
	return worse, v
}

// compareFiles prints one row per (workload, end-to-end metric) of two suite
// files — both medians with their quartiles, the ratio with its base, the
// bound and the verdict — and reports whether any pair was not ok.
func compareFiles(w io.Writer, basePath, candPath string) (notOK bool, err error) {
	load := func(path string) (*suiteFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var sf suiteFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sf, nil
	}
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cand, err := load(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base      %s: %s\ncandidate %s: %s\n", basePath, base.Stamp, candPath, cand.Stamp)
	fmt.Fprintf(w, "%-22s %-18s %-8s %14s %25s %14s %25s %16s %6s  %s\n",
		"workload", "metric", "unit", "base median", "[q1, q3]", "cand median", "[q1, q3]", "cand/base", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			b, c := column(base.Runs[wl.Name], m.Name), column(cand.Runs[wl.Name], m.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-22s %-18s missing on one side\n", wl.Name, m.Name)
				notOK = true
				continue
			}
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			_, v := verdict(m, b, c)
			if v != verdictOK {
				notOK = true
			}
			fmt.Fprintf(w, "%-22s %-18s %-8s %14.6g %25s %14.6g %25s %7.4f of %-6.4g %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, median(b), fmt.Sprintf("[%.5g, %.5g]", bq1, bq3),
				median(c), fmt.Sprintf("[%.5g, %.5g]", cq1, cq3), median(c)/median(b), median(b), m.Bound*100, v)
		}
		if f := base.Failed[wl.Name] + cand.Failed[wl.Name]; f > 0 {
			fmt.Fprintf(w, "%-22s %d failed operations: the numbers above do not count\n", wl.Name, f)
			notOK = true
		}
	}
	return notOK, nil
}

package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/data"
	"repro/internal/fed"
)

// Series is one plotted line: label plus (x, y) points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Table is one printed table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// PrintSeries renders series as aligned columns of x/y pairs.
func PrintSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "%s:\n", s.Label)
		for i := range s.X {
			fmt.Fprintf(w, "  x=%-10.4f y=%.4f\n", s.X[i], s.Y[i])
		}
	}
}

// Options selects experiment scale, determinism, and parallelism.
type Options struct {
	Scale data.Scale
	Seed  uint64
	Out   io.Writer
	// Tune, when set, adjusts the derived runtime before the run (tests and
	// benches use it to shrink rounds/iterations further than CI defaults).
	Tune func(*Runtime)
	// Parallelism bounds concurrently-training clients inside the federated
	// engine; 0 means GOMAXPROCS. Results are deterministic regardless.
	Parallelism int
	// Observer, when set, streams every engine run's per-round and per-task
	// progress (CLIs print live rows; dashboards can tail a long Full-scale
	// run). It does not affect results.
	Observer fed.RoundObserver
	// Scheduler selects the federation's round-scheduling policy ("sync",
	// the default, or "async"); it changes results — see fed.Config.
	Scheduler string
	// SyncEvict lets the sync scheduler evict a dropped client instead of
	// aborting; it changes results — see fed.Config.SyncEvict. Ignored
	// under the async scheduler (which always evicts).
	SyncEvict bool
	// AsyncCommitK / MaxStaleness / StalenessAlpha configure the async
	// scheduler (fed.AsyncConfig); ignored under the sync scheduler.
	AsyncCommitK   int
	MaxStaleness   int
	StalenessAlpha float64
	// Shards partitions the server's aggregation fold across concurrent
	// per-shard reducers; results are bitwise identical for every value —
	// see fed.Config.Shards. 0 or 1 keeps the single-loop default.
	Shards int
}

// tune applies the optional runtime adjustment.
func (o Options) tune(rt *Runtime) {
	if o.Tune != nil {
		o.Tune(rt)
	}
}

// out returns a usable writer.
func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// gb converts bytes to gigabytes.
func gb(bytes int64) float64 { return float64(bytes) / (1 << 30) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f6 formats a float with six decimals (byte volumes in GB at CI scale are
// tiny).
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }

// pct formats a ratio as a percentage with two decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

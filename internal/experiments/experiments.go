// Package experiments contains one runner per table and figure of the
// paper's evaluation (§7). Each runner replays a workload, scores every
// algorithm and returns a text table whose rows mirror the series of
// the original plot. cmd/cocobench exposes the registry on the command
// line; bench_test.go wires each runner to a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cocosketch/internal/telemetry"
)

// RunConfig scales a runner.
type RunConfig struct {
	// Packets is the trace length replayed per measurement window.
	// The paper uses the 27M-packet CAIDA and 13M-packet MAWI traces;
	// the default here is 2M for tractable wall-clock on one core.
	Packets int
	// Seed drives trace generation and every sketch.
	Seed uint64
	// Quick shrinks sweeps (fewer x-axis points, smaller traces) for
	// unit tests and smoke benchmarks.
	Quick bool
	// Bytes switches the flow-size metric from packet counts to byte
	// counts (the paper's f can be either; §2.1).
	Bytes bool
	// Workers caps the sharded-ingest scaling sweep (ext-scaling):
	// worker counts 1, 2, 4, … up to Workers. Zero means
	// min(8, GOMAXPROCS). Throughput only scales with physical cores.
	Workers int
	// Telemetry, when non-nil, instruments the sharded-ingest runners
	// (ring drops, burst sizes, sketch outcomes). Nil keeps the
	// measurement loops un-instrumented.
	Telemetry *telemetry.Registry
}

// packets returns the effective trace length.
func (c RunConfig) packets() int {
	if c.Quick {
		n := c.Packets / 10
		if n < 50_000 {
			n = 50_000
		}
		if n > 200_000 {
			n = 200_000
		}
		return n
	}
	if c.Packets <= 0 {
		return 2_000_000
	}
	return c.Packets
}

// TableResult is a rendered experiment outcome.
type TableResult struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records scale caveats (e.g. reduced trace length).
	Notes []string
}

// AddRow appends a row; values are formatted with %v, floats with 4
// significant decimals.
func (t *TableResult) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10:
		return fmt.Sprintf("%.1f", x)
	case x >= 0.01:
		return fmt.Sprintf("%.4f", x)
	default:
		return fmt.Sprintf("%.3g", x)
	}
}

// CSV renders the table as RFC-4180-ish comma-separated values with a
// header row (for plotting tools).
func (t *TableResult) CSV() string {
	var b strings.Builder
	esc := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	esc(t.Columns)
	for _, row := range t.Rows {
		esc(row)
	}
	return b.String()
}

// String renders the aligned table.
func (t *TableResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(cfg RunConfig) (*TableResult, error)

// registry maps experiment ids to runners; populated by init functions
// in the per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs lists all registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() RunConfig {
	return RunConfig{Packets: 500_000, Seed: 1, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15a", "fig15b", "fig15c", "fig15d", "fig16", "fig17",
		"fig18a", "fig18b", "table2",
		"ext-entropy", "ext-distinct", "headline", "ext-hhh-granularity",
		"ext-scaling", "ext-zeroalloc", "ext-report",
	}
	ids := IDs()
	got := make(map[string]bool, len(ids))
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestTableResultFormatting(t *testing.T) {
	tr := &TableResult{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"name", "value"},
		Notes:   []string{"a note"},
	}
	tr.AddRow("alpha", 0.12345)
	tr.AddRow("b", 1234567.0)
	s := tr.String()
	if !strings.Contains(s, "== x: demo ==") || !strings.Contains(s, "0.1235") ||
		!strings.Contains(s, "1234567") || !strings.Contains(s, "note: a note") {
		t.Fatalf("formatting wrong:\n%s", s)
	}
}

// parse pulls a named float column from the row of a given series+x.
func parse(t *testing.T, res *TableResult, series, x, col string) float64 {
	t.Helper()
	ci := -1
	for i, c := range res.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, res.Columns)
	}
	for _, row := range res.Rows {
		if row[0] == series && (x == "" || row[1] == x) {
			v, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				t.Fatalf("cell %q not a float", row[ci])
			}
			return v
		}
	}
	t.Fatalf("no row for series %q x %q in %v", series, x, res.Rows)
	return 0
}

func runID(t *testing.T, id string) *TableResult {
	t.Helper()
	r, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	res, err := r(quickCfg())
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return res
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	res := runID(t, "fig8")
	// CocoSketch at 6 keys stays accurate.
	if rr := parse(t, res, "Ours", "6", "recall"); rr < 0.9 {
		t.Errorf("Ours recall at 6 keys = %.3f, want >= 0.9", rr)
	}
	if pr := parse(t, res, "Ours", "6", "precision"); pr < 0.9 {
		t.Errorf("Ours precision at 6 keys = %.3f, want >= 0.9", pr)
	}
	// Baselines lose recall when spreading memory over 6 keys.
	ourARE := parse(t, res, "Ours", "6", "ARE")
	cmARE := parse(t, res, "CM-Heap", "6", "ARE")
	if cmARE <= ourARE {
		t.Errorf("CM-Heap ARE (%.4f) should exceed Ours (%.4f) at 6 keys", cmARE, ourARE)
	}
	for _, base := range []string{"C-Heap", "CM-Heap", "Elastic", "UnivMon"} {
		if rr := parse(t, res, base, "6", "recall"); rr > parse(t, res, "Ours", "6", "recall") {
			t.Errorf("%s recall beats Ours at 6 keys", base)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	res := runID(t, "fig10")
	if rr := parse(t, res, "Ours", "6", "recall"); rr < 0.85 {
		t.Errorf("Ours heavy-change recall at 6 keys = %.3f", rr)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	res := runID(t, "fig11")
	oursF1 := parse(t, res, "Ours", "500", "F1")
	rhhhF1 := parse(t, res, "RHHH", "500", "F1")
	if oursF1 < 0.9 {
		t.Errorf("Ours 1-d HHH F1 at 500KB = %.3f, want >= 0.9", oursF1)
	}
	if rhhhF1 >= oursF1 {
		t.Errorf("RHHH F1 (%.3f) should trail Ours (%.3f)", rhhhF1, oursF1)
	}
	oursARE := parse(t, res, "Ours", "500", "ARE")
	rhhhARE := parse(t, res, "RHHH", "500", "ARE")
	if rhhhARE < 10*oursARE {
		t.Errorf("RHHH ARE (%.4f) should be orders of magnitude above Ours (%.4f)", rhhhARE, oursARE)
	}
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	res := runID(t, "fig14")
	ours1 := parse(t, res, "Ours", "1", "Mpps")
	ours6 := parse(t, res, "Ours", "6", "Mpps")
	if ours6 < ours1*0.6 {
		t.Errorf("Ours throughput fell with keys: %.2f -> %.2f", ours1, ours6)
	}
	// Per-key baselines slow down as keys grow.
	el1 := parse(t, res, "Elastic", "1", "Mpps")
	el6 := parse(t, res, "Elastic", "6", "Mpps")
	if el6 >= el1 {
		t.Errorf("Elastic throughput should fall with keys: %.2f -> %.2f", el1, el6)
	}
	if ours6 <= el6 {
		t.Errorf("Ours (%.2f) should beat Elastic (%.2f) at 6 keys", ours6, el6)
	}
}

func TestExtScalingShape(t *testing.T) {
	res := runID(t, "ext-scaling")
	if len(res.Rows) < 1 {
		t.Fatal("no rows")
	}
	if res.Rows[0][0] != "1" {
		t.Errorf("first row workers = %s, want 1", res.Rows[0][0])
	}
	for _, row := range res.Rows {
		mpps, err := strconv.ParseFloat(row[1], 64)
		if err != nil || mpps <= 0 {
			t.Errorf("workers=%s: bad Mpps %q", row[0], row[1])
		}
	}
	// Scaling with workers requires physical cores, so the shape test
	// only pins that every worker count completes losslessly (the
	// runner errors on lost packets) and reports positive throughput.
}

func TestExtReportShape(t *testing.T) {
	res := runID(t, "ext-report")
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 codec rows, got %d", len(res.Rows))
	}
	if res.Rows[0][0] != "full" {
		t.Errorf("first row = %s, want the full-codec baseline", res.Rows[0][0])
	}
	ratio := func(row []string) float64 {
		r, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("codec %s: bad ratio %q", row[0], row[3])
		}
		return r
	}
	// The full codec ships MarshalBinary verbatim: ratio exactly 1.
	if r := ratio(res.Rows[0]); r != 1 {
		t.Errorf("full-codec byte ratio = %v, want exactly 1", r)
	}
	// Ratios must grow monotonically with the shrink factor, and
	// shrink-8 (the -report-shrink default) must clear the 5× floor
	// that make bench-report gates.
	prev := 0.0
	for _, row := range res.Rows {
		r := ratio(row)
		if r <= prev {
			t.Errorf("codec %s: ratio %v not above previous %v", row[0], r, prev)
		}
		prev = r
		if are, err := strconv.ParseFloat(row[4], 64); err != nil || are < 0 {
			t.Errorf("codec %s: bad HH ARE %q", row[0], row[4])
		}
	}
	if r := ratio(res.Rows[3]); r < 5 {
		t.Errorf("shrink-8 ratio %v below the 5× floor", r)
	}
}

func TestExtZeroAllocShape(t *testing.T) {
	res := runID(t, "ext-zeroalloc")
	if len(res.Rows) < 2 {
		t.Fatalf("want legacy and pooled rows, got %d", len(res.Rows))
	}
	if res.Rows[0][0] != "legacy decode+ingest" || res.Rows[1][0] != "pooled" {
		t.Errorf("unexpected row order: %v, %v", res.Rows[0], res.Rows[1])
	}
	for _, row := range res.Rows {
		mpps, err := strconv.ParseFloat(row[2], 64)
		if err != nil || mpps <= 0 {
			t.Errorf("path=%s queues=%s: bad Mpps %q", row[0], row[1], row[2])
		}
	}
	// The runner itself verifies bit-identical decode tables across all
	// paths and errors on any divergence, so the shape test only pins
	// that every row completes with positive throughput (the speedup
	// needs physical cores and GOGC pressure to show on this host).
}

func TestFig15aShape(t *testing.T) {
	res := runID(t, "fig15a")
	if len(res.Rows) != 2 {
		t.Fatalf("want one row per quick thread count (1, 2), got %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0] != strconv.Itoa(i+1) {
			t.Errorf("row %d threads = %s, want %d", i, row[0], i+1)
		}
		for col := 1; col <= 2; col++ {
			if mpps, err := strconv.ParseFloat(row[col], 64); err != nil || mpps <= 0 {
				t.Errorf("threads=%s %s: bad Mpps %q", row[0], res.Columns[col], row[col])
			}
		}
	}
	// The runner itself errors unless every replay accounts for every
	// packet and the merged sketch mass equals the packet count.
}

func TestFig15bShape(t *testing.T) {
	res := runID(t, "fig15b")
	last := res.Rows[len(res.Rows)-1]
	speedup, err := strconv.ParseFloat(last[3], 64)
	if err != nil || speedup < 4 || speedup > 6.5 {
		t.Errorf("FPGA speedup at 2MB = %v, want ≈5", last[3])
	}
}

func TestTable2Shape(t *testing.T) {
	res := runID(t, "table2")
	if got := res.Rows[0][1]; got != "20.83%" {
		t.Errorf("CM hash dist = %s, want 20.83%%", got)
	}
	last := res.Rows[len(res.Rows)-1]
	if last[1] != "4" {
		t.Errorf("max Count-Min instances = %v, want 4", last[1])
	}
	if last[2] != "3" && last[2] != "4" {
		t.Errorf("max R-HHH instances = %v, want 3 or 4", last[2])
	}
}

func TestFig18bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	res := runID(t, "fig18b")
	ourFull := parse(t, res, "Ours", "", "ARE(full32)")
	ourPart := parse(t, res, "Ours", "", "ARE(partial24)")
	if ourFull > 0.15 || ourPart > 0.15 {
		t.Errorf("Ours ARE too high: full %.4f partial %.4f", ourFull, ourPart)
	}
	lossyPart := parse(t, res, "Lossy", "", "ARE(partial24)")
	fullPart := parse(t, res, "Full", "", "ARE(partial24)")
	if lossyPart < 5*ourPart {
		t.Errorf("Lossy partial ARE (%.4f) should be far above Ours (%.4f)", lossyPart, ourPart)
	}
	if fullPart < 5*ourPart {
		t.Errorf("Full partial ARE (%.4f) should be far above Ours (%.4f)", fullPart, ourPart)
	}
}

func TestFig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	// Full (non-quick) scale: USS's slow eviction path only dominates
	// once the flow count exceeds its bucket count.
	r, _ := Lookup("fig16")
	res, err := r(RunConfig{Packets: 500_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f1d2 := parse(t, res, "d=2", "", "F1")
	if f1d2 < 0.85 {
		t.Errorf("d=2 F1 = %.3f, want >= 0.85", f1d2)
	}
	// Accuracy rises from d=1 to d=2 (the figure's left panel)...
	if f1d1 := parse(t, res, "d=1", "", "F1"); f1d1 >= f1d2 {
		t.Errorf("F1 did not improve d=1 (%.3f) -> d=2 (%.3f)", f1d1, f1d2)
	}
	// ...and throughput falls as d grows (the right panel). Go's
	// accelerated USS is throughput-comparable to d=2 (see
	// EXPERIMENTS.md), so only the d trend is asserted; wall-clock
	// noise on a shared CPU makes exact cross-algorithm ordering
	// unstable.
	d1 := parse(t, res, "d=1", "", "Mpps")
	d6 := parse(t, res, "d=6", "", "Mpps")
	if d6 >= d1 {
		t.Errorf("throughput should fall with d: d=1 %.2f -> d=6 %.2f", d1, d6)
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	res := runID(t, "ext-entropy")
	// CocoSketch's plug-in entropy should track the exact entropy
	// within 15% for every key.
	for _, row := range res.Rows {
		exact, err1 := strconv.ParseFloat(row[1], 64)
		coco, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		if exact > 0 && (coco < exact*0.85 || coco > exact*1.15) {
			t.Errorf("%s: coco entropy %.2f vs exact %.2f", row[0], coco, exact)
		}
	}

	res = runID(t, "ext-distinct")
	last := res.Rows[len(res.Rows)-1]
	exact, _ := strconv.ParseFloat(last[1], 64)
	est, _ := strconv.ParseFloat(last[2], 64)
	if est < exact*0.9 || est > exact*1.1 {
		t.Errorf("HLL distinct pairs %.0f vs exact %.0f", est, exact)
	}
}

func TestCSVFormat(t *testing.T) {
	tr := &TableResult{
		Columns: []string{"a", "b"},
	}
	tr.AddRow("x,y", 1.5)
	got := tr.CSV()
	want := "a,b\n\"x,y\",1.5000\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestBytesModeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	r, _ := Lookup("fig8")
	res, err := r(RunConfig{Packets: 100_000, Seed: 3, Quick: true, Bytes: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr := parse(t, res, "Ours", "6", "recall"); rr < 0.9 {
		t.Errorf("byte-mode recall at 6 keys = %.3f", rr)
	}
}

func TestQuickRunnersAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// Smoke: every registered experiment completes in quick mode.
	cfg := RunConfig{Packets: 200_000, Seed: 2, Quick: true}
	for _, id := range IDs() {
		r, _ := Lookup(id)
		res, err := r(cfg)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

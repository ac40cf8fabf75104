package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun is one in-process run at smoke-test size.
type tinyRun struct {
	res    result
	inputs string
	// printed holds every "metric <name> <value> <unit>" line.
	printed map[string]float64
}

func runTiny(t *testing.T, args ...string) tinyRun {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-seconds", "1", "-scale", "0.01"}, args...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("cocoperf %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	out := tinyRun{printed: make(map[string]float64)}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 2 && strings.HasPrefix(f[1], "fnv64="):
			out.inputs = f[1]
		case len(f) == 4 && f[0] == "metric":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("bad metric line %q", l)
			}
			out.printed[f[1]] = v
		}
	}
	return out
}

func sameUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for n, u := range want {
		if got[n] != u {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, n, got[n], u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, n)
		}
	}
}

func TestRunsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var declared, have []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, declared)
	}
	wantE2E := make(map[string]string)
	for _, d := range b.EndToEnd {
		wantE2E[d.Name] = d.Unit
	}
	wantLayer := make(map[string]string)
	for _, d := range b.PerLayer {
		wantLayer[d.Name] = d.Unit
	}
	seed1 := ""
	for _, w := range have {
		plain := runTiny(t, "-workload", w, "-seed", "1")
		traced := runTiny(t, "-workload", w, "-seed", "1", "-trace", "1", "-spans", filepath.Join(t.TempDir(), "spans.json"))
		sameUnits(t, w+" untraced", resultUnits(plain.res), wantE2E)
		sameUnits(t, w+" traced", resultUnits(traced.res), wantLayer)
		if plain.inputs == "" || plain.inputs != traced.inputs {
			t.Errorf("%s: same seed generated inputs %q and %q", w, plain.inputs, traced.inputs)
		}
		for _, m := range []string{"hh_f1", "hh_are", "wire_kb_per_epoch"} {
			if a, b := plain.res.Metrics[m].Value, traced.printed[m]; a != b {
				t.Errorf("%s: %s differs between two runs of seed 1: %v and %v", w, m, a, b)
			}
		}
		if w == "ingest-caida-64b" {
			seed1 = plain.inputs
		}
	}
	if other := runTiny(t, "-workload", "ingest-caida-64b", "-seed", "2"); other.inputs == seed1 {
		t.Errorf("seeds 1 and 2 generated the same inputs %s", seed1)
	}
}

func resultUnits(r result) map[string]string {
	out := make(map[string]string, len(r.Metrics))
	for n, v := range r.Metrics {
		out[n] = v.Unit
	}
	return out
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "ingest-caida-64b", "-trace", "2"},
		{"-workload", "ingest-caida-64b", "-seconds", "0"},
		{"-workload", "ingest-caida-64b", "-scale", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want 2 and none", args, code, stdout.String())
		}
	}
}

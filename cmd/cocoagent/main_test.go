package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

// startCollector runs an in-process collector on a loopback port and
// returns it with its address. Its geometry is the one cocoagent
// derives from the same -mem, -d and -seed.
func startCollector(t *testing.T, memKB, d int, seed uint64) (*netwide.Collector, string) {
	t.Helper()
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](d, memKB*1024, seed))
	collector := netwide.NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = collector.Serve(l) }()
	return collector, l.Addr().String()
}

// telemetryAddr extracts the bound address from run()'s
// "telemetry: listening on ADDR" stdout line.
func telemetryAddr(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if addr, ok := strings.CutPrefix(line, "telemetry: listening on "); ok {
			return addr
		}
	}
	t.Fatalf("no telemetry address in output:\n%s", stdout)
	return ""
}

// fetchVars GETs /debug/vars and decodes the flat JSON document.
func fetchVars(t *testing.T, addr string) map[string]any {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]any{}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v\n%s", err, body)
	}
	return vars
}

// counter reads a counter value out of the decoded vars document.
func counter(t *testing.T, vars map[string]any, name string) uint64 {
	t.Helper()
	v, ok := vars[name].(float64)
	if !ok {
		t.Fatalf("var %q missing or not a number: %v", name, vars[name])
	}
	return uint64(v)
}

// TestRunTelemetryEndToEnd runs the agent binary in-process against a
// live collector with -telemetry enabled, then scrapes /debug/vars and
// checks the counters reflect the reported epochs. The telemetry
// listener outlives run() by design (it serves for the process
// lifetime), so the scrape happens after the agent completes.
func TestRunTelemetryEndToEnd(t *testing.T) {
	collector, addr := startCollector(t, 64, 2, 5)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "1", "-collector", addr,
		"-packets", "20000", "-epochs", "2",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-telemetry", "127.0.0.1:0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}
	if got := collector.AgentsReported(0); got != 1 {
		t.Fatalf("collector saw %d agents for epoch 0", got)
	}

	vars := fetchVars(t, telemetryAddr(t, stdout.String()))
	if got := counter(t, vars, "netwide.reports_sent"); got != 2 {
		t.Errorf("netwide.reports_sent = %d, want 2", got)
	}
	if got := counter(t, vars, "netwide.observed"); got != 40000 {
		t.Errorf("netwide.observed = %d, want 40000", got)
	}
	outcomes := counter(t, vars, "core.matched") +
		counter(t, vars, "core.replaced") + counter(t, vars, "core.kept")
	if outcomes != 40000 {
		t.Errorf("sketch outcomes sum to %d, want 40000", outcomes)
	}
}

// TestRunTelemetryShardedWorkers checks the -workers path registers the
// ingest pipeline's counters and that its workers insert the whole
// trace.
func TestRunTelemetryShardedWorkers(t *testing.T) {
	_, addr := startCollector(t, 64, 2, 5)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "2", "-collector", addr,
		"-packets", "20000", "-epochs", "1",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-workers", "2", "-telemetry", "127.0.0.1:0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}

	vars := fetchVars(t, telemetryAddr(t, stdout.String()))
	if got := counter(t, vars, "ingest.consumed"); got != 20000 {
		t.Errorf("ingest.consumed = %d, want 20000 (lossless)", got)
	}
	// The merged replay lands in the epoch sketch as one merge.
	if got := counter(t, vars, "netwide.absorbs"); got != 1 {
		t.Errorf("netwide.absorbs = %d, want 1", got)
	}
}

// TestRunNoTelemetryFlag pins the default-off form: without -telemetry
// nothing about the run mentions a listener.
func TestRunNoTelemetryFlag(t *testing.T) {
	_, addr := startCollector(t, 64, 2, 5)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "3", "-collector", addr,
		"-packets", "5000", "-mem", "64", "-d", "2", "-seed", "5",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "telemetry") {
		t.Fatalf("telemetry output without -telemetry:\n%s", stdout.String())
	}
}

// TestRunPcapMatchesReference feeds a real capture through -pcap
// (the shard replay pipeline) and checks the epoch-0 table the
// collector seals: at -workers 1 it equals one sketch fed the trace's
// packets in order, at -workers 2 the merge of two such sketches, one
// per half of the RSS split.
func TestRunPcapMatchesReference(t *testing.T) {
	tr := trace.CAIDALike(20000, 5)
	path := filepath.Join(t.TempDir(), "caida.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePCAP(f, 128); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](2, 64<<10, 5))
	seq := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := range tr.Packets {
		seq.Insert(tr.Packets[i].Key, 1)
	}
	newSketch := shard.NewBasicFactory(cfg, nil)
	halves := []*core.Basic[flowkey.FiveTuple]{newSketch(0), newSketch(1)}
	for i := range tr.Packets {
		halves[flowkey.RSSIndex(tr.Packets[i].Key, 5, 2)].Insert(tr.Packets[i].Key, 1)
	}
	merged := newSketch(2)
	for _, h := range halves {
		if err := merged.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	sharded := merged.Decode()

	for _, tc := range []struct {
		workers string
		want    map[flowkey.FiveTuple]uint64
	}{
		{"1", seq.Decode()},
		{"2", sharded},
	} {
		t.Run("workers="+tc.workers, func(t *testing.T) {
			collector, addr := startCollector(t, 64, 2, 5)
			var stdout, stderr bytes.Buffer
			code := run([]string{
				"-id", "1", "-collector", addr, "-pcap", path,
				"-mem", "64", "-d", "2", "-seed", "5", "-workers", tc.workers,
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
			}
			ring := window.NewRing(1, cfg)
			if err := collector.SealEpochInto(ring, 0); err != nil {
				t.Fatalf("collector holds no epoch 0: %v", err)
			}
			got, err := ring.Window(window.Range{From: 0, To: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got.FullTable(), tc.want) {
				t.Fatalf("epoch-0 table (%d flows) differs from the reference (%d flows)",
					len(got.FullTable()), len(tc.want))
			}
		})
	}
}

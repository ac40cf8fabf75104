package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/window"
)

// syncBuffer is a mutex-guarded buffer so the test can poll run()'s
// output while run is still writing it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls the buffer until the substring shows up (or the test
// times out after five seconds).
func waitFor(t *testing.T, buf *syncBuffer, substr string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if out := buf.String(); strings.Contains(out, substr) {
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("output never contained %q:\n%s", substr, buf.String())
	return ""
}

func TestRunBadFlagExitsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2\nstderr: %s", code, stderr.String())
	}
}

func TestRunBadKeysExitsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-keys", "NotAHeaderField"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "NotAHeaderField") {
		t.Fatalf("stderr does not name the bad key:\n%s", stderr.String())
	}
}

func TestRunBadListenAddrFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-listen", "256.0.0.1:notaport"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "cococollector:") {
		t.Fatalf("stderr missing failure detail:\n%s", stderr.String())
	}
}

// TestRunBadSizesExitUsage pins the size and interval flags' usage
// errors: each exits 2 naming its flag before the collector listens
// (the unparsable listen port would exit 1 otherwise).
func TestRunBadSizesExitUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-d", "0"}, "-d"},
		{[]string{"-mem", "0"}, "-mem"},
		{[]string{"-mem", "-5"}, "-mem"},
		{[]string{"-top", "-1"}, "-top"},
		{[]string{"-every", "0"}, "-every"},
		{[]string{"-every", "-1s"}, "-every"},
	} {
		t.Run(strings.Join(tc.args, "="), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-listen", "256.0.0.1:notaport"}, tc.args...), &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag+" ") {
				t.Fatalf("stderr does not name %s:\n%s", tc.flag, stderr.String())
			}
		})
	}
}

// TestRunServeQueryRequiresWindow pins the -serve-query usage contract.
func TestRunServeQueryRequiresWindow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-serve-query", "127.0.0.1:0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-window") {
		t.Fatalf("stderr does not explain the missing -window:\n%s", stderr.String())
	}
}

// TestRunWindowServesShrunkReports: the window ring sums epoch tables
// of any geometry, so an epoch an in-process agent ships at
// -report-shrink 8 seals into it. /epochs must list the epoch, /query
// must serve it with the agent's full mass, and nothing may be
// reported on stderr.
func TestRunWindowServesShrunkReports(t *testing.T) {
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	go run([]string{
		"-listen", "127.0.0.1:0",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-every", "20ms",
		"-window", "4",
		"-serve-query", "127.0.0.1:0",
	}, stdout, stderr)
	queryAddr, listenAddr := serveAddrs(t, stdout)

	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](2, 64*1024, 5))
	codec, err := report.New[flowkey.FiveTuple](cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	agent := netwide.NewAgent(1, cfg).SetCodec(codec)
	conn, err := net.Dial("tcp", listenAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const observed = 3000
	for i := 0; i < observed; i++ {
		agent.Observe(flowkey.FiveTuple{SrcIP: [4]byte{10, 0, 0, byte(i % 4)}, Proto: 6}, 1)
	}
	agent.EndEpoch()
	if err := agent.Flush(conn); err != nil {
		t.Fatal(err)
	}

	var epochs window.EpochsResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + queryAddr + "/epochs")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&epochs)
			resp.Body.Close()
		}
		if err == nil && len(epochs.Epochs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query tier never saw the shrunk epoch (last: %+v, err %v)\nstderr: %s", epochs, err, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(epochs.Epochs) != 1 || epochs.Epochs[0] != 0 {
		t.Fatalf("epochs = %+v, want [0] retained", epochs)
	}

	resp, err := http.Get("http://" + queryAddr + "/query?sql=SELECT+SrcIP,+SUM(Size)+FROM+table+GROUP+BY+SrcIP&range=0:1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var qr window.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	var mass uint64
	for _, row := range qr.Rows {
		mass += row.Size
	}
	if qr.From != 0 || qr.To != 1 || mass != observed {
		t.Fatalf("query [%d,%d) mass %d, want [0,1) mass %d (rows %+v)", qr.From, qr.To, mass, observed, qr.Rows)
	}
	if msg := stderr.String(); msg != "" {
		t.Fatalf("stderr not empty:\n%s", msg)
	}
}

// serveAddrs waits for run's query and collector listeners and returns
// their addresses.
func serveAddrs(t *testing.T, stdout *syncBuffer) (queryAddr, listenAddr string) {
	t.Helper()
	out := waitFor(t, stdout, "query: listening on ")
	line := out[strings.Index(out, "query: listening on ")+len("query: listening on "):]
	queryAddr = strings.Fields(line)[0]
	out = waitFor(t, stdout, "collecting on ")
	line = out[strings.Index(out, "collecting on ")+len("collecting on "):]
	return queryAddr, strings.Fields(line)[0]
}

// TestRunWindowQueryEndToEnd boots the collector with the sliding
// window and the JSON query endpoint enabled, reports two epochs from
// an in-process agent, and queries the live endpoint: /epochs must show
// both sealed epochs and /query must serve the windowed top sources
// with the full observed mass.
func TestRunWindowQueryEndToEnd(t *testing.T) {
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	go run([]string{
		"-listen", "127.0.0.1:0",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-keys", "SrcIP",
		"-every", "20ms",
		"-window", "4",
		"-serve-query", "127.0.0.1:0",
	}, stdout, stderr)

	queryAddr, listenAddr := serveAddrs(t, stdout)

	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](2, 64*1024, 5))
	agent := netwide.NewAgent(1, cfg)
	conn, err := net.Dial("tcp", listenAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var observed uint64
	for e := 0; e < 2; e++ {
		for i := 0; i < 3000; i++ {
			agent.Observe(flowkey.FiveTuple{SrcIP: [4]byte{10, 0, 0, byte(i % 4)}, Proto: 6}, 1)
			observed++
		}
		agent.EndEpoch()
		if err := agent.Flush(conn); err != nil {
			t.Fatal(err)
		}
	}

	// The main loop seals one epoch per tick; poll /epochs until both
	// seals are visible to the query tier.
	var epochs window.EpochsResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + queryAddr + "/epochs")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&epochs)
			resp.Body.Close()
		}
		if err == nil && epochs.To >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query tier never saw both epochs (last: %+v, err %v)\nstderr: %s", epochs, err, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if epochs.From != 0 || len(epochs.Epochs) != 2 {
		t.Fatalf("epochs = %+v, want [0 1] retained", epochs)
	}

	resp, err := http.Get("http://" + queryAddr + "/query?sql=SELECT+SrcIP,+SUM(Size)+FROM+table+GROUP+BY+SrcIP")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var qr window.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.From != 0 || qr.To != 2 || qr.Mask != "SrcIP" {
		t.Fatalf("query response header = %+v, want [0,2) SrcIP", qr)
	}
	var mass uint64
	for _, row := range qr.Rows {
		mass += row.Size
	}
	if mass != observed {
		t.Fatalf("windowed mass %d != observed %d (rows %+v)", mass, observed, qr.Rows)
	}
}

// oneshot boots run() with -oneshot on an ephemeral port, flushes the
// agent's spool to it, and returns run's stdout once it has exited 0
// (failing the test if it exits otherwise or not within five seconds).
func oneshot(t *testing.T, agent *netwide.Agent) string {
	t.Helper()
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-mem", "64", "-d", "2", "-seed", "5",
			"-keys", "SrcIP,DstPort",
			"-every", "20ms", "-oneshot",
			"-idle-timeout", "1m",
		}, stdout, stderr)
	}()

	out := waitFor(t, stdout, "collecting on ")
	line := out[strings.Index(out, "collecting on ")+len("collecting on "):]
	conn, err := net.Dial("tcp", strings.Fields(line)[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := agent.Flush(conn); err != nil {
		t.Fatal(err)
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("oneshot run never exited\nstdout: %s", stdout.String())
	}
	return stdout.String()
}

// TestRunOneshotEndToEnd boots the collector via run() on an ephemeral
// port, reports one epoch from an in-process agent, and checks run
// exits 0 after printing the epoch summary.
func TestRunOneshotEndToEnd(t *testing.T) {
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](2, 64*1024, 5))
	agent := netwide.NewAgent(1, cfg)
	for i := 0; i < 5000; i++ {
		agent.Observe(flowkey.FiveTuple{SrcPort: uint16(i % 64), Proto: 6}, 1)
	}
	agent.EndEpoch()
	out := oneshot(t, agent)
	if !strings.Contains(out, "=== epoch 0 (1 agents) ===") {
		t.Fatalf("no epoch summary in output:\n%s", out)
	}
}

// TestRunOneshotServesCoalescedEpoch delivers epochs 0 and 1 as one
// coalesced spool report, which arrives under its range's high epoch
// only. The main loop must serve epoch 1 instead of waiting forever for
// an epoch 0 that never arrives.
func TestRunOneshotServesCoalescedEpoch(t *testing.T) {
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](2, 64*1024, 5))
	agent := netwide.NewAgent(1, cfg).SetSpool(1, netwide.SpoolCoalesce)
	for e := 0; e < 2; e++ {
		for i := 0; i < 2000; i++ {
			agent.Observe(flowkey.FiveTuple{SrcPort: uint16(i % 64), DstPort: uint16(e), Proto: 6}, 1)
		}
		agent.EndEpoch()
	}
	if agent.PendingEpochs() != 1 {
		t.Fatalf("spool holds %d entries, want epochs 0-1 coalesced into 1", agent.PendingEpochs())
	}
	out := oneshot(t, agent)
	if !strings.Contains(out, "=== epoch 1 (1 agents) ===") {
		t.Fatalf("coalesced epoch not served:\n%s", out)
	}
}

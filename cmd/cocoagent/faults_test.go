package main

// Error-path tests for the agent binary: usage errors, an unreachable
// collector, the fail-fast mode exiting on a mid-run outage injected by
// a frame-level flaky proxy, and the -spool hardened mode surviving (or
// honestly reporting) one.

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"

	"cocosketch/internal/netwide"
)

func TestRunBadFlagExitsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2\nstderr: %s", code, stderr.String())
	}
}

// TestRunBadSizesExitUsage pins the size flags' usage errors: each
// exits 2 naming its flag before the agent dials (the unparsable
// collector port would exit 1 otherwise).
func TestRunBadSizesExitUsage(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
	}{
		{"-d", "0"},
		{"-mem", "0"},
		{"-mem", "-5"},
		{"-packets", "-1"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-collector", "127.0.0.1:notaport", "-packets", "1000", tc.flag, tc.value}, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag+" ") {
				t.Fatalf("stderr does not name %s: %q", tc.flag, stderr.String())
			}
		})
	}
}

func TestRunCollectorDownAtStart(t *testing.T) {
	// Bind and immediately close a listener: the port is real but
	// refuses connections, so the initial dial fails fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "1", "-collector", addr,
		"-packets", "1000", "-mem", "64", "-d", "2", "-seed", "5",
		"-redials", "0",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cocoagent:") {
		t.Fatalf("stderr missing failure detail:\n%s", stderr.String())
	}
}

// flakyProxy forwards whole protocol frames between the agent and the
// collector, killing the agent-facing connection just BEFORE the
// breakAfter-th sketch would be forwarded (so the collector never sees
// it and there is no delivered-but-unacked ambiguity). With heal set,
// the agent's redial gets a fresh working connection; without it the
// proxy listener closes too, so every redial is refused.
type flakyProxy struct {
	addr string
	mu   sync.Mutex
	seen int
}

func startFlakyProxy(t *testing.T, collectorAddr string, breakAfter int, heal bool) *flakyProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	p := &flakyProxy{addr: l.Addr().String()}
	go func() {
		for {
			client, err := l.Accept()
			if err != nil {
				return
			}
			upstream, err := net.Dial("tcp", collectorAddr)
			if err != nil {
				client.Close()
				continue
			}
			go p.pipe(client, upstream, breakAfter, heal, l)
		}
	}()
	return p
}

// pipe shuttles frames both ways until the injected break.
func (p *flakyProxy) pipe(client, upstream net.Conn, breakAfter int, heal bool, l net.Listener) {
	defer client.Close()
	defer upstream.Close()
	for {
		m, err := netwide.ReadMessage(client)
		if err != nil {
			return
		}
		if m.Type == netwide.MsgSketch {
			p.mu.Lock()
			n := p.seen
			p.seen++
			p.mu.Unlock()
			if n == breakAfter {
				if !heal {
					l.Close() // future redials are refused too
				}
				return // drop the frame and reset the agent's conn
			}
		}
		if err := netwide.WriteMessage(upstream, m); err != nil {
			return
		}
		ack, err := netwide.ReadMessage(upstream)
		if err != nil {
			return
		}
		if err := netwide.WriteMessage(client, ack); err != nil {
			return
		}
	}
}

// TestRunFailFastExitsOnLostCollector pins the mode without -spool: the
// second sketch is dropped and every redial is refused, so the run must
// exit 1 at epoch 1 with only epoch 0 delivered.
func TestRunFailFastExitsOnLostCollector(t *testing.T) {
	collector, addr := startCollector(t, 64, 2, 5)
	proxy := startFlakyProxy(t, addr, 1, false)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "1", "-collector", proxy.addr,
		"-packets", "5000", "-epochs", "3",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-redials", "1",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "cocoagent: report:") {
		t.Fatalf("stderr missing report failure:\n%s", stderr.String())
	}
	if got := collector.Epochs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("collector holds epochs %v, want only [0]", got)
	}
	if strings.Contains(stdout.String(), "epoch 1 reported") {
		t.Errorf("stdout claims the lost epoch was reported:\n%s", stdout.String())
	}
}

// TestRunSpoolSurvivesMidRunOutage kills the connection mid-run (the
// second sketch is dropped before reaching the collector) and checks
// hardened mode redials, re-sends from the spool, and exits 0 with
// every epoch delivered.
func TestRunSpoolSurvivesMidRunOutage(t *testing.T) {
	collector, addr := startCollector(t, 64, 2, 5)
	proxy := startFlakyProxy(t, addr, 1, true)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "1", "-collector", proxy.addr,
		"-packets", "5000", "-epochs", "3",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-spool", "4", "-redials", "3", "-write-timeout", "5s",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for e := uint32(0); e < 3; e++ {
		if got := collector.AgentsReported(e); got != 1 {
			t.Errorf("epoch %d: collector saw %d agents, want 1", e, got)
		}
	}
}

// TestRunSpoolReportsUndelivered pins the honest-failure path: the
// outage never heals, so the run must exit 1 and say how many epochs
// (and how much weight) never reached the collector.
func TestRunSpoolReportsUndelivered(t *testing.T) {
	_, addr := startCollector(t, 64, 2, 5)
	proxy := startFlakyProxy(t, addr, 1, false)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "1", "-collector", proxy.addr,
		"-packets", "5000", "-epochs", "3",
		"-mem", "64", "-d", "2", "-seed", "5",
		"-spool", "4", "-redials", "1", "-write-timeout", "5s",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "epochs undelivered") {
		t.Fatalf("stderr missing undelivered summary:\n%s", stderr.String())
	}
}

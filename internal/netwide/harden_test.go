package netwide

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/faultnet"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
)

// recClock is a recording fake Clock: Sleep advances it and logs the
// duration, so a retry schedule can be pinned exactly.
type recClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *recClock) Now() time.Time { return c.now }
func (c *recClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

// deadConn always fails, simulating a connection whose peer is gone.
type deadConn struct{}

func (deadConn) Read([]byte) (int, error)        { return 0, errors.New("dead") }
func (deadConn) Write([]byte) (int, error)       { return 0, errors.New("dead") }
func (deadConn) Close() error                    { return nil }
func (deadConn) LocalAddr() net.Addr             { return nil }
func (deadConn) RemoteAddr() net.Addr            { return nil }
func (deadConn) SetDeadline(time.Time) error     { return nil }
func (deadConn) SetReadDeadline(time.Time) error { return nil }
func (deadConn) SetWriteDeadline(time.Time) error {
	return nil
}

// TestBackoffSchedulePinned pins the default-policy delay schedule for
// a fixed seed: capped exponential with half jitter, reproducible draw
// for draw. If this test breaks, the retry behavior of every deployed
// agent changed — update the golden values deliberately.
func TestBackoffSchedulePinned(t *testing.T) {
	b := NewBackoff(50*time.Millisecond, 2*time.Second, 7)
	got := make([]time.Duration, 7)
	for i := range got {
		got[i] = b.Delay(i)
	}
	want := []time.Duration{
		34745743,   // attempt 0: uncapped 50ms, jittered
		50839414,   // attempt 1: uncapped 100ms
		190076068,  // attempt 2: uncapped 200ms
		316586058,  // attempt 3: uncapped 400ms
		580976758,  // attempt 4: uncapped 800ms
		999545217,  // attempt 5: uncapped 1.6s
		1467953004, // attempt 6: capped at 2s
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Delay(%d) = %d, want %d (full schedule %v)", i, got[i], want[i], got)
		}
	}
	// Structural invariants: every delay within [u/2, u) of its
	// uncapped-then-capped envelope.
	for i, d := range got {
		u := 50 * time.Millisecond << i
		if u > 2*time.Second {
			u = 2 * time.Second
		}
		if d < u/2 || d >= u {
			t.Errorf("Delay(%d) = %v outside [%v, %v)", i, d, u/2, u)
		}
	}
}

// TestFlushWithRedialBackoffSchedule checks FlushWithRedial sleeps
// exactly the shared policy's schedule between redials — the
// regression test for the old retry-immediately loop.
func TestFlushWithRedialBackoffSchedule(t *testing.T) {
	cfg := telNetCfg()
	clk := &recClock{now: time.Unix(0, 0)}
	agent := NewAgent(1, cfg).
		SetClock(clk).
		SetBackoff(NewBackoff(50*time.Millisecond, 2*time.Second, 7))
	agent.Observe(flowkey.FiveTuple{Proto: 6}, 1)
	agent.EndEpoch()

	failDial := func() (net.Conn, error) { return nil, errors.New("collector down") }
	if _, err := agent.FlushWithRedial(deadConn{}, failDial, 5); err == nil {
		t.Fatal("redial against dead dialer succeeded")
	}
	want := NewBackoff(50*time.Millisecond, 2*time.Second, 7)
	if len(clk.sleeps) != 5 {
		t.Fatalf("slept %d times over 5 attempts: %v", len(clk.sleeps), clk.sleeps)
	}
	for i, d := range clk.sleeps {
		if w := want.Delay(i); d != w {
			t.Errorf("sleep %d = %v, want %v", i, d, w)
		}
	}
	if got := agent.PendingEpochs(); got != 1 {
		t.Errorf("spool holds %d epochs after failed flush, want 1", got)
	}
}

// TestHandleReturnsOnSetReadDeadlineError uses faultnet's reset
// injector to produce a connection on which SetReadDeadline fails, and
// checks Handle surfaces the error instead of looping blind — the
// regression test for the ignored-error goroutine leak.
func TestHandleReturnsOnSetReadDeadlineError(t *testing.T) {
	n := faultnet.New(1, faultnet.Faults{ResetProb: 1})
	l, err := n.Listen("collector")
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.Dial("collector")
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The first client write trips the reset injector on both ends.
	if _, err := client.Write([]byte("x")); !errors.Is(err, faultnet.ErrReset) {
		t.Fatalf("write = %v, want injected reset", err)
	}

	collector := NewCollector(telNetCfg()).SetIdleTimeout(time.Second).SetClock(n)
	err = collector.Handle(server)
	if !errors.Is(err, faultnet.ErrReset) {
		t.Fatalf("Handle on reset conn = %v, want wrapped ErrReset", err)
	}
	if !strings.Contains(err.Error(), "idle deadline") {
		t.Fatalf("error %q does not name the failing deadline arm", err)
	}
}

// TestHandlerExitsOnHalfOpenConn dials a collector and then abandons
// the connection without closing it (a half-open peer). With an idle
// timeout the handler goroutine must terminate on its own — n.Wait
// returning at all is the proof, and the conns gauge returning to zero
// confirms the accounting.
func TestHandlerExitsOnHalfOpenConn(t *testing.T) {
	n := faultnet.New(1, faultnet.Faults{})
	l, err := n.Listen("collector")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	// Dial returns before Serve accepts, so wait for the handler spawn
	// itself before closing the listener.
	started := make(chan struct{})
	var startOnce sync.Once
	collector := NewCollector(telNetCfg()).
		SetTelemetry(reg).
		SetClock(n).
		SetIdleTimeout(30 * time.Second).
		SetSpawn(func(fn func()) {
			startOnce.Do(func() { close(started) })
			n.Go(fn)
		})
	n.Go(func() { _ = collector.Serve(l) })

	n.Go(func() {
		if _, err := n.Dial("collector"); err != nil {
			t.Error(err)
		}
		// Abandon the connection: no close, no traffic.
	})
	<-started
	l.Close()
	n.Wait() // hangs forever if the handler leaks

	if got := reg.Gauge("netwide.agent_conns").Value(); got != 0 {
		t.Errorf("agent_conns = %d after half-open handler exit", got)
	}
	if elapsed := n.Now().Sub(faultnet.Base); elapsed < 30*time.Second {
		t.Errorf("handler exited after %v, before the 30s idle timeout", elapsed)
	}
}

// TestReportWriteTimeout checks a collector that accepts but never
// acknowledges trips the agent's per-report deadline instead of
// blocking forever, and that the timeout consumes exactly the
// configured budget of (virtual) time.
func TestReportWriteTimeout(t *testing.T) {
	n := faultnet.New(1, faultnet.Faults{})
	l, err := n.Listen("collector")
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Read the report, never ack, never close: a stalled collector.
		buf := make([]byte, 1<<20)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})

	agent := NewAgent(1, telNetCfg()).SetClock(n).SetWriteTimeout(5 * time.Second)
	agent.Observe(flowkey.FiveTuple{Proto: 6}, 3)
	agent.EndEpoch()
	conn, err := n.Dial("collector")
	if err != nil {
		t.Fatal(err)
	}
	start := n.Now()
	err = agent.Flush(conn)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("report against stalled collector = %v, want timeout", err)
	}
	if waited := n.Now().Sub(start); waited != 5*time.Second {
		t.Errorf("timeout after %v, want exactly the 5s budget", waited)
	}
	if got := agent.PendingEpochs(); got != 1 {
		t.Errorf("spool holds %d epochs after timed-out flush, want 1", got)
	}
	conn.Close()
	l.Close()
	n.Wait()
}

// TestSpoolCoalesceBoundsAndConserves seals more epochs than the spool
// holds and checks the coalescing policy: depth stays bounded, the
// possibly-transmitted head entry is never rewritten, and no weight is
// lost (the conservation ledger balances with dropped = 0).
func TestSpoolCoalesceBoundsAndConserves(t *testing.T) {
	cfg := telNetCfg()
	reg := telemetry.New()
	agent := NewAgent(3, cfg).SetTelemetry(reg).SetSpool(2, SpoolCoalesce)

	weights := []uint64{10, 20, 30, 40}
	for _, w := range weights {
		agent.Observe(flowkey.FiveTuple{Proto: 6, SrcPort: uint16(w)}, w)
		agent.EndEpoch()
	}
	if got := agent.PendingEpochs(); got != 2 {
		t.Fatalf("spool depth = %d with limit 2", got)
	}
	if got := agent.PendingWeight(); got != 100 {
		t.Fatalf("pending weight = %d, want 100 (nothing shed)", got)
	}
	if agent.spool[0].lo != 0 || agent.spool[0].hi != 0 {
		t.Errorf("head entry spans [%d,%d], want untouched [0,0]", agent.spool[0].lo, agent.spool[0].hi)
	}
	if agent.spool[1].lo != 1 || agent.spool[1].hi != 3 {
		t.Errorf("tail entry spans [%d,%d], want coalesced [1,3]", agent.spool[1].lo, agent.spool[1].hi)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netwide.spool_coalesced"]; got != 2 {
		t.Errorf("spool_coalesced = %d, want 2", got)
	}
	if got := snap.Counters["netwide.dropped_weight"]; got != 0 {
		t.Errorf("dropped_weight = %d under coalesce policy", got)
	}
	if got := snap.Gauges["netwide.spool_weight"]; got != 100 {
		t.Errorf("spool_weight gauge = %d, want 100", got)
	}

	// Delivering the spool to a real collector balances the ledger:
	// observed == delivered_weight, spool empty.
	collector := NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = collector.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := agent.Flush(conn); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if ob, dw := snap.Counters["netwide.observed"], snap.Counters["netwide.delivered_weight"]; ob != dw {
		t.Errorf("observed %d != delivered_weight %d after full flush", ob, dw)
	}
	if got := agent.PendingEpochs(); got != 0 {
		t.Errorf("spool depth = %d after flush", got)
	}
	// Coalesced reports land under their range's high epoch.
	if held := collector.Epochs(); !slices.Equal(held, []uint32{0, 3}) {
		t.Errorf("collector holds epochs %v, want [0 3]", held)
	}
}

// TestFlushEncodesEachSpoolEntryOnce pins the payload a spool entry
// keeps: a retry after a failed exchange sends the slice the first
// attempt encoded, and coalescing an epoch into the entry makes the
// next flush encode the merged stage.
func TestFlushEncodesEachSpoolEntryOnce(t *testing.T) {
	agent := NewAgent(3, telNetCfg()).SetSpool(1, SpoolCoalesce)
	encoded := func() []byte {
		t.Helper()
		e := agent.spool[0]
		blob, err := agent.codec.Encode(e.hi, e.stage)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	agent.Observe(flowkey.FiveTuple{Proto: 6, SrcPort: 1}, 10)
	agent.EndEpoch()
	if err := agent.Flush(deadConn{}); err == nil {
		t.Fatal("flush over a dead connection succeeded")
	}
	first := agent.spool[0].payload
	if !bytes.Equal(first, encoded()) {
		t.Fatal("a failed flush did not keep the entry's encoded payload")
	}
	if err := agent.Flush(deadConn{}); err == nil {
		t.Fatal("flush over a dead connection succeeded")
	}
	if got := agent.spool[0].payload; len(got) == 0 || &got[0] != &first[0] {
		t.Fatal("the retry encoded the entry again")
	}

	agent.Observe(flowkey.FiveTuple{Proto: 6, SrcPort: 2}, 20)
	agent.EndEpoch() // coalesced into the head: the spool holds one entry
	if e := agent.spool[0]; len(agent.spool) != 1 || e.hi != 1 || e.payload != nil {
		t.Fatalf("coalesced spool: %d entries, head [%d,%d] with a %d-byte payload", len(agent.spool), e.lo, e.hi, len(e.payload))
	}
	if err := agent.Flush(deadConn{}); err == nil {
		t.Fatal("flush over a dead connection succeeded")
	}
	if got := agent.spool[0].payload; !bytes.Equal(got, encoded()) || bytes.Equal(got, first) {
		t.Fatal("the flush after a coalesce did not encode the merged stage")
	}
}

// TestSpoolDropOldestLedger checks the shedding policy: depth bounded,
// oldest entries shed, and the shed weight accounted exactly so the
// conservation ledger still balances.
func TestSpoolDropOldestLedger(t *testing.T) {
	cfg := telNetCfg()
	reg := telemetry.New()
	agent := NewAgent(4, cfg).SetTelemetry(reg).SetSpool(2, SpoolDropOldest)

	for _, w := range []uint64{10, 20, 30, 40} {
		agent.Observe(flowkey.FiveTuple{Proto: 17, SrcPort: uint16(w)}, w)
		agent.EndEpoch()
	}
	if got := agent.PendingEpochs(); got != 2 {
		t.Fatalf("spool depth = %d with limit 2", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netwide.dropped_weight"]; got != 30 {
		t.Errorf("dropped_weight = %d, want 10+20", got)
	}
	if got := snap.Counters["netwide.dropped_epochs"]; got != 2 {
		t.Errorf("dropped_epochs = %d, want 2", got)
	}
	ob := snap.Counters["netwide.observed"]
	pending := uint64(snap.Gauges["netwide.spool_weight"])
	dropped := snap.Counters["netwide.dropped_weight"]
	if ob != pending+dropped {
		t.Errorf("ledger: observed %d != pending %d + dropped %d", ob, pending, dropped)
	}
}

// TestAgentStatusesTrackReports ingests epoch 0 from agent 1 and checks
// the agent's liveness entry records the report.
func TestAgentStatusesTrackReports(t *testing.T) {
	cfg := telNetCfg()
	collector := NewCollector(cfg)

	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 9)
	if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: 1, Payload: encode(t, 0, sk, 1)}); err != nil {
		t.Fatal(err)
	}
	st := collector.AgentStatuses()
	if st[1].Reports != 1 || st[1].LastEpoch != 0 {
		t.Errorf("agent 1 status = %+v", st[1])
	}
}

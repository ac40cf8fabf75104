package netwide

import (
	"errors"
	"net"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// telNetCfg keeps the sketches tiny so reports are cheap.
func telNetCfg() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 21}
}

// TestAgentCollectorTelemetryRoundTrip runs two epochs over a real TCP
// connection and checks the counters on both ends agree with each
// other and with the traffic.
func TestAgentCollectorTelemetryRoundTrip(t *testing.T) {
	cfg := telNetCfg()
	regC := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(regC)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = collector.Serve(l) }()

	regA := telemetry.New()
	agent := NewAgent(1, cfg).SetTelemetry(regA)
	tr := trace.CAIDALike(5_000, 13)
	keys := make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		keys[i] = tr.Packets[i].Key
	}

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const epochs = 2
	for e := 0; e < epochs; e++ {
		for _, k := range keys {
			agent.Observe(k, 1)
		}
		agent.EndEpoch()
		if err := agent.Flush(conn); err != nil {
			t.Fatal(err)
		}
	}

	snapA := regA.Snapshot()
	if got := snapA.Counters["netwide.observed"]; got != uint64(epochs*len(keys)) {
		t.Errorf("netwide.observed = %d, want %d", got, epochs*len(keys))
	}
	if got := snapA.Counters["netwide.reports_sent"]; got != epochs {
		t.Errorf("netwide.reports_sent = %d, want %d", got, epochs)
	}
	if snapA.Counters["netwide.report_bytes"] == 0 {
		t.Error("netwide.report_bytes = 0 after two reports")
	}
	// The per-epoch sketch outcomes must partition the observed packets
	// (fresh epoch sketches inherit the counter group).
	outcomes := snapA.Counters["core.matched"] + snapA.Counters["core.replaced"] + snapA.Counters["core.kept"]
	if outcomes != uint64(epochs*len(keys)) {
		t.Errorf("sketch outcomes sum to %d, want %d", outcomes, epochs*len(keys))
	}

	snapC := regC.Snapshot()
	if got := snapC.Counters["netwide.reports_received"]; got != epochs {
		t.Errorf("netwide.reports_received = %d, want %d", got, epochs)
	}
	if snapC.Counters["netwide.recv_bytes"] != snapA.Counters["netwide.report_bytes"] {
		t.Errorf("recv_bytes %d != report_bytes %d",
			snapC.Counters["netwide.recv_bytes"], snapA.Counters["netwide.report_bytes"])
	}
	if got := snapC.Gauges["netwide.epochs_tracked"]; got != epochs {
		t.Errorf("netwide.epochs_tracked = %d, want %d", got, epochs)
	}
	if got := snapC.Gauges["netwide.agent_conns"]; got != 1 {
		t.Errorf("netwide.agent_conns = %d with one live connection", got)
	}
}

// TestCollectorTelemetryDupAndMergeError drives the ingest error paths
// directly and checks each is charged to its counter.
func TestCollectorTelemetryDupAndMergeError(t *testing.T) {
	cfg := telNetCfg()
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)

	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 10)
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	msg := Message{Type: MsgSketch, Epoch: 0, AgentID: 1, Payload: blob}
	if err := collector.ingest(msg); err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(msg); err != nil { // retry after lost ack
		t.Fatal(err)
	}
	if got := reg.Counter("netwide.dup_reports").Value(); got != 1 {
		t.Errorf("netwide.dup_reports = %d, want 1", got)
	}

	// A sketch with a different geometry must fail the merge.
	bad := core.NewBasic[flowkey.FiveTuple](core.Config{Arrays: 3, BucketsPerArray: 32, Seed: 21})
	badBlob, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: 2, Payload: badBlob}); err == nil {
		t.Fatal("incompatible sketch ingested without error")
	}
	if got := reg.Counter("netwide.merge_errors").Value(); got != 1 {
		t.Errorf("netwide.merge_errors = %d, want 1", got)
	}
	if got := reg.Counter("netwide.reports_received").Value(); got != 1 {
		t.Errorf("netwide.reports_received = %d, want 1 (dup and error excluded)", got)
	}
}

// TestFlushWithRedialReconnects kills the collector's listener out
// from under the agent and checks FlushWithRedial redials, delivers
// the epoch exactly once, and counts the reconnect.
func TestFlushWithRedialReconnects(t *testing.T) {
	cfg := telNetCfg()
	regC := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(regC)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = collector.Serve(l) }()

	reg := telemetry.New()
	agent := NewAgent(7, cfg).SetTelemetry(reg)
	agent.Observe(flowkey.FiveTuple{Proto: 17, SrcPort: 53}, 4)
	agent.EndEpoch()

	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	// A pre-closed connection forces the first Flush to fail.
	dead, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	conn, err := agent.FlushWithRedial(dead, dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := reg.Counter("netwide.reconnects").Value(); got != 1 {
		t.Errorf("netwide.reconnects = %d, want 1", got)
	}
	if got := reg.Counter("netwide.reports_sent").Value(); got != 1 {
		t.Errorf("netwide.reports_sent = %d, want 1", got)
	}
	if got := agent.PendingEpochs(); got != 0 {
		t.Errorf("spool holds %d epochs after successful redial flush", got)
	}
	if got := collector.AgentsReported(0); got != 1 {
		t.Errorf("collector saw %d agents for epoch 0, want 1", got)
	}

	// Exhausted attempts surface the dial error and leave the epoch
	// spooled for a later retry.
	agent.Observe(flowkey.FiveTuple{Proto: 6, SrcPort: 443}, 1)
	agent.EndEpoch()
	dead2, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	dead2.Close()
	failDial := func() (net.Conn, error) { return nil, errors.New("collector down") }
	if _, err := agent.FlushWithRedial(dead2, failDial, 3); err == nil {
		t.Fatal("redial with dead dialer reported success")
	}
	if got := agent.PendingEpochs(); got != 1 {
		t.Errorf("spool holds %d epochs after failed flush, want 1", got)
	}
}

package netwide

import (
	"math/rand"
	"net"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
)

// denseCfg is big enough that full snapshots dominate the wire and the
// compressed codec has real work to do.
var denseCfg = core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 0xBEEF}

func mustCompressed(t *testing.T, cfg core.Config, shrink int) report.Codec[flowkey.FiveTuple] {
	t.Helper()
	codec, err := report.Compressed[flowkey.FiveTuple](cfg, shrink, flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

// observeEpoch drives one epoch of skewed traffic with persistent
// flows (shared key population) plus churn, through the agent.
func observeEpoch(a *Agent, epoch int, packets int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < packets; i++ {
		var k flowkey.FiveTuple
		if rng.Intn(10) == 0 {
			k = flowkey.FiveTuple{SrcPort: uint16(epoch), DstPort: uint16(rng.Intn(100)), Proto: 17}
		} else {
			k = flowkey.FiveTuple{SrcPort: 443, DstPort: uint16(rng.Intn(400)), Proto: 6}
		}
		a.Observe(k, uint64(1+rng.Intn(3)))
	}
}

func serveCollector(t *testing.T, c *Collector) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(l) }()
	return l.Addr().String(), func() { l.Close() }
}

// TestCompressedEndToEndConservesMassAtFiveXFewerBytes runs the whole
// pipeline — agent seals with the compressed codec, collector decodes
// and merges — across several epochs and checks (a) every epoch's
// network-wide mass matches what the agents observed and (b) the
// telemetry-measured wire bytes are at least 5× below the snapshot
// baseline.
func TestCompressedEndToEndConservesMassAtFiveXFewerBytes(t *testing.T) {
	codec := mustCompressed(t, denseCfg, 8)
	reg := telemetry.New()
	collector := NewCollector(denseCfg).SetCodec(codec)
	addr, stop := serveCollector(t, collector)
	defer stop()

	agents := []*Agent{
		NewAgent(1, denseCfg).SetTelemetry(reg).SetCodec(codec),
		NewAgent(2, denseCfg).SetTelemetry(reg).SetCodec(mustCompressed(t, denseCfg, 8)),
	}
	conns := make([]net.Conn, len(agents))
	for i := range agents {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
	}

	var observed uint64
	perEpoch := make([]uint64, 4)
	for epoch := 0; epoch < 4; epoch++ {
		for i, a := range agents {
			observeEpoch(a, epoch, 30000, int64(1000*epoch+i))
			perEpoch[epoch] += a.sketch.SumValues()
			observed += a.sketch.SumValues()
			a.EndEpoch()
			if a.LocalStage() == nil || a.LocalStage().BucketsPerArray() != denseCfg.BucketsPerArray {
				t.Fatal("fat stage did not stay local")
			}
			if err := a.Flush(conns[i]); err != nil {
				t.Fatalf("agent %d epoch %d: %v", i, epoch, err)
			}
		}
	}

	var merged uint64
	for epoch := uint32(0); epoch < 4; epoch++ {
		eng, ok := collector.Epoch(epoch)
		if !ok {
			t.Fatalf("epoch %d missing at collector", epoch)
		}
		var total uint64
		for _, v := range eng.FullTable() {
			total += v
		}
		if total != perEpoch[epoch] {
			t.Errorf("epoch %d: collector mass %d, agents observed %d", epoch, total, perEpoch[epoch])
		}
		merged += total
	}
	if merged != observed {
		t.Errorf("total mass %d != observed %d", merged, observed)
	}

	snap := reg.Snapshot()
	raw := snap.Counters["netwide.report_raw_bytes"]
	wire := snap.Counters["netwide.report_bytes"]
	if raw == 0 || wire == 0 {
		t.Fatalf("byte counters missing (raw %d, wire %d)", raw, wire)
	}
	if raw < 5*wire {
		t.Errorf("compression ratio %.2f× below the 5× floor (%d raw, %d wire)",
			float64(raw)/float64(wire), raw, wire)
	}
	if snap.Histograms["netwide.report_ratio_x100"].Count() == 0 {
		t.Error("report_ratio_x100 histogram never observed")
	}
	if got := snap.Counters["netwide.observed"]; got != observed {
		t.Errorf("observed counter %d, want %d", got, observed)
	}
	if ob, dw := snap.Counters["netwide.observed"], snap.Counters["netwide.delivered_weight"]; ob != dw {
		t.Errorf("ledger: observed %d != delivered %d with empty spool", ob, dw)
	}
}

// TestMixedFleetAtCompressedCollector serves a full-codec agent and a
// compressed-codec agent from one compressed collector: snapshots pass
// through, deltas decode, and every epoch's mass is conserved. The
// compressed agent ships at shrink 1 because an epoch's shards must
// share one geometry to merge.
func TestMixedFleetAtCompressedCollector(t *testing.T) {
	cfg := telNetCfg()
	collector := NewCollector(cfg).SetCodec(mustCompressed(t, cfg, 1))
	addr, stop := serveCollector(t, collector)
	defer stop()

	agents := []*Agent{NewAgent(1, cfg), NewAgent(2, cfg).SetCodec(mustCompressed(t, cfg, 1))}
	conns := make([]net.Conn, len(agents))
	for i := range agents {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	for epoch := 0; epoch < 3; epoch++ {
		var want uint64
		for i, a := range agents {
			observeEpoch(a, epoch, 2000, int64(10*epoch+i))
			want += a.sketch.SumValues()
			a.EndEpoch()
			if err := a.Flush(conns[i]); err != nil {
				t.Fatalf("agent %d epoch %d: %v", i, epoch, err)
			}
		}
		eng, ok := collector.Epoch(uint32(epoch))
		if !ok {
			t.Fatalf("epoch %d missing at collector", epoch)
		}
		var total uint64
		for _, v := range eng.FullTable() {
			total += v
		}
		if total != want {
			t.Errorf("epoch %d: collector mass %d, agents observed %d", epoch, total, want)
		}
	}
}

// TestSetCodecPanicsWithSpooledEpochs: an agent has one codec, so
// switching it while stages sealed by the old one wait in the spool is
// a programming error that must fail loudly.
func TestSetCodecPanicsWithSpooledEpochs(t *testing.T) {
	cfg := telNetCfg()
	agent := NewAgent(1, cfg)
	agent.Observe(flowkey.FiveTuple{Proto: 6}, 1)
	agent.EndEpoch()
	defer func() {
		if recover() == nil {
			t.Fatal("SetCodec with a spooled epoch did not panic")
		}
	}()
	agent.SetCodec(mustCompressed(t, cfg, 4))
}

// TestSetCodecPanicsOnUnsealableGeometry: a codec whose stage cannot
// be cut from the agent's geometry would leave every sealed epoch
// undeliverable, so SetCodec refuses it up front.
func TestSetCodecPanicsOnUnsealableGeometry(t *testing.T) {
	agent := NewAgent(1, core.Config{Arrays: 2, BucketsPerArray: 1000, Seed: 1})
	codec := mustCompressed(t, core.Config{Arrays: 2, BucketsPerArray: 1024, Seed: 1}, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("SetCodec accepted a shrink-16 codec for 1000 buckets per array")
		}
	}()
	agent.SetCodec(codec)
}

// TestFullCollectorRejectsCompressedReports pins the strict cell of
// the compatibility matrix, with the decode failure counted.
func TestFullCollectorRejectsCompressedReports(t *testing.T) {
	cfg := telNetCfg()
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)

	codec := mustCompressed(t, cfg, 4)
	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 5)
	stage, err := codec.Seal(sk)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.NewEncoder().Encode(0, stage)
	if err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: 1, Payload: payload}); err == nil {
		t.Fatal("full-codec collector accepted a compressed payload")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netwide.decode_failures"]; got != 1 {
		t.Errorf("decode_failures = %d, want 1", got)
	}
	if got := snap.Counters["netwide.reports_received"]; got != 0 {
		t.Errorf("reports_received = %d after rejected report", got)
	}
}

// TestCollectorRestartRecovery exercises the delta-base resync
// protocol end to end: a collector that lost all decoder state (a
// restart) rejects the next delta with a base mismatch, the connection
// drops, and the agent's redial path — whose failed exchange reset the
// encoder — delivers a self-contained report on retry. No state is
// lost and no manual resync is needed.
func TestCollectorRestartRecovery(t *testing.T) {
	cfg := telNetCfg()
	codec := mustCompressed(t, cfg, 4)
	agent := NewAgent(7, cfg).SetTelemetry(telemetry.New()).SetCodec(codec).SetSpool(4, SpoolCoalesce)

	first := NewCollector(cfg).SetCodec(mustCompressed(t, cfg, 4))
	addr1, stop1 := serveCollector(t, first)
	conn, err := net.Dial("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	observeEpoch(agent, 0, 2000, 1)
	agent.EndEpoch()
	if err := agent.Flush(conn); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	stop1()

	// The replacement collector has no decoder state for agent 7.
	reg := telemetry.New()
	second := NewCollector(cfg).SetCodec(mustCompressed(t, cfg, 4)).SetTelemetry(reg)
	addr2, stop2 := serveCollector(t, second)
	defer stop2()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr2) }

	observeEpoch(agent, 1, 2000, 2)
	want := agent.sketch.SumValues()
	agent.EndEpoch()
	conn2, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	conn2, err = agent.FlushWithRedial(conn2, dial, 3)
	if err != nil {
		t.Fatalf("flush never recovered: %v", err)
	}
	defer conn2.Close()

	if got := reg.Snapshot().Counters["netwide.base_mismatches"]; got != 1 {
		t.Errorf("base_mismatches = %d, want exactly 1 (then recovery)", got)
	}
	eng, ok := second.Epoch(1)
	if !ok {
		t.Fatal("epoch 1 missing after recovery")
	}
	var total uint64
	for _, v := range eng.FullTable() {
		total += v
	}
	if total != want {
		t.Errorf("epoch 1 mass %d after recovery, want %d", total, want)
	}
}

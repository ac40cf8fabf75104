package netwide

import (
	"math/rand"
	"net"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
)

// denseCfg is big enough that full snapshots dominate the wire and the
// codec has real work to do.
var denseCfg = core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 0xBEEF}

func mustCodec(t *testing.T, cfg core.Config, shrink int) report.Codec[flowkey.FiveTuple] {
	t.Helper()
	codec, err := report.New[flowkey.FiveTuple](cfg, shrink)
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
// pipeline — agents seal shrink-8 stages, the collector decodes and
// merges — across several epochs and checks (a) every epoch's
// network-wide mass matches what the agents observed and (b) the
// telemetry-measured wire bytes are at least 5× below the snapshot
// baseline.
func TestCompressedEndToEndConservesMassAtFiveXFewerBytes(t *testing.T) {
	codec := mustCodec(t, denseCfg, 8)
	reg := telemetry.New()
	collector := NewCollector(denseCfg)
	addr, stop := serveCollector(t, collector)
	defer stop()

	agents := []*Agent{
		NewAgent(1, denseCfg).SetTelemetry(reg).SetCodec(codec),
		NewAgent(2, denseCfg).SetTelemetry(reg).SetCodec(codec),
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
			if err := a.Flush(conns[i]); err != nil {
				t.Fatalf("agent %d epoch %d: %v", i, epoch, err)
			}
		}
	}

	ring := window.NewRing(4, denseCfg)
	sealAll(t, collector, ring)
	var merged uint64
	for epoch := uint32(0); epoch < 4; epoch++ {
		tab, ok := epochTable(t, ring, epoch)
		if !ok {
			t.Fatalf("epoch %d missing at collector", epoch)
		}
		var total uint64
		for _, v := range tab {
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
	agent.SetCodec(mustCodec(t, cfg, 4))
}

// TestSetCodecPanicsOnUnsealableGeometry: a codec whose stage cannot
// be cut from the agent's geometry would leave every sealed epoch
// undeliverable, so SetCodec refuses it up front.
func TestSetCodecPanicsOnUnsealableGeometry(t *testing.T) {
	agent := NewAgent(1, core.Config{Arrays: 2, BucketsPerArray: 1000, Seed: 1})
	codec := mustCodec(t, core.Config{Arrays: 2, BucketsPerArray: 1024, Seed: 1}, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("SetCodec accepted a shrink-16 codec for 1000 buckets per array")
		}
	}()
	agent.SetCodec(codec)
}

// TestCollectorRestartRecovery: a report decodes on its own, so a
// collector that lost all state (a restart) accepts the agent's next
// report on the first exchange — no redial, no decode failure — and
// holds the epoch's exact mass.
func TestCollectorRestartRecovery(t *testing.T) {
	cfg := telNetCfg()
	regA := telemetry.New()
	agent := NewAgent(7, cfg).SetTelemetry(regA).SetCodec(mustCodec(t, cfg, 4)).SetSpool(4, SpoolCoalesce)

	first := NewCollector(cfg)
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

	// The replacement collector has never heard from agent 7.
	reg := telemetry.New()
	second := NewCollector(cfg).SetTelemetry(reg)
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
		t.Fatalf("flush to the restarted collector failed: %v", err)
	}
	defer conn2.Close()

	if got := regA.Snapshot().Counters["netwide.reconnects"]; got != 0 {
		t.Errorf("reconnects = %d, want 0: the first exchange must succeed", got)
	}
	if got := reg.Snapshot().Counters["netwide.decode_failures"]; got != 0 {
		t.Errorf("decode_failures = %d, want 0", got)
	}
	ring := window.NewRing(1, cfg)
	sealAll(t, second, ring)
	tab, ok := epochTable(t, ring, 1)
	if !ok {
		t.Fatal("epoch 1 missing at the restarted collector")
	}
	var total uint64
	for _, v := range tab {
		total += v
	}
	if total != want {
		t.Errorf("epoch 1 mass %d at the restarted collector, want %d", total, want)
	}
}

// TestDeprecatedSetCodecChangesNothing: Collector.SetCodec is a no-op
// shim, so a collector "set" to the shrink-1 codec still accepts a
// shrink-4 stage of its Config.
func TestDeprecatedSetCodecChangesNothing(t *testing.T) {
	cfg := telNetCfg()
	collector := NewCollector(cfg)
	if collector.SetCodec(report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes)) != collector {
		t.Fatal("SetCodec did not return its collector")
	}
	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 5)
	stage, err := sk.ExtractStage(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(Message{Type: MsgSketch, AgentID: 1, Payload: encode(t, 0, stage, 4)}); err != nil {
		t.Fatal(err)
	}
}

package netwide

// Seal-path tests: SealEpochInto hands the query-serving tier the
// canonical fold as a private clone and then drops the epoch, with
// ErrNoEpoch for absent epochs and sink errors propagated; SealNext
// seals the oldest held epoch; the fold does not depend on the order
// reports arrive in; and the collector holds only unsealed epochs.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
)

// recordSink captures Seal calls and optionally fails them; with next
// set, it passes each sealed epoch on to next (a tee).
type recordSink struct {
	epochs   []uint64
	sketches []*core.Basic[flowkey.FiveTuple]
	err      error
	next     EpochSink
}

func (s *recordSink) Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error {
	if s.err != nil {
		return s.err
	}
	s.epochs = append(s.epochs, epoch)
	s.sketches = append(s.sketches, sk)
	if s.next != nil {
		return s.next.Seal(epoch, sk)
	}
	return nil
}

// sealAll seals every epoch the collector holds into ring by the
// serving rule, oldest first, until none is left.
func sealAll(t *testing.T, c *Collector, ring *window.Ring) {
	t.Helper()
	for {
		_, _, ok, err := c.SealNext(ring)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}

// epochTable returns the full-key table ring serves for epoch e, and
// whether ring holds e.
func epochTable(t *testing.T, ring *window.Ring, e uint32) (map[flowkey.FiveTuple]uint64, bool) {
	t.Helper()
	eng, err := ring.Window(window.Range{From: uint64(e), To: uint64(e) + 1})
	if errors.Is(err, window.ErrEmpty) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng.FullTable(), true
}

func TestSealEpochIntoHandsCanonicalFoldClone(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3}
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)
	stages := make(map[uint16]*core.Basic[flowkey.FiveTuple])
	for _, agent := range []uint16{2, 1} { // arrival order ≠ canonical order
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for p := 0; p < 50; p++ {
			sk.Insert(flowkey.FiveTuple{SrcPort: agent, DstPort: uint16(p), Proto: 6}, uint64(1+p%4))
		}
		payload := encode(t, 0, sk, 1)
		stage, _, err := report.Decode(0, payload, cfg.Arrays*cfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
		if err != nil {
			t.Fatal(err)
		}
		stages[agent] = stage
		if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: agent, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}

	// A sink that rejects the seal changes nothing: the epoch stays
	// held, and its error propagates.
	boom := fmt.Errorf("ring full")
	if err := collector.SealEpochInto(&recordSink{err: boom}, 0); !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated: %v", err)
	}
	if got := collector.AgentsReported(0); got != 2 {
		t.Fatalf("a rejected seal left %d of 2 shards", got)
	}

	sink := &recordSink{}
	if err := collector.SealEpochInto(sink, 0); err != nil {
		t.Fatal(err)
	}
	if len(sink.epochs) != 1 || sink.epochs[0] != 0 {
		t.Fatalf("sink sealed epochs %v, want [0]", sink.epochs)
	}
	// The canonical fold: agent 1's stage, then agent 2's merged in.
	ref := stages[1].Clone()
	if err := ref.Merge(stages[2]); err != nil {
		t.Fatal(err)
	}
	if !sink.sketches[0].Equal(ref) {
		t.Fatal("sealed sketch is not the canonical fold")
	}

	// The sink owns the epoch now: the collector holds none of it.
	if held := collector.Epochs(); len(held) != 0 {
		t.Fatalf("collector holds epochs %v after sealing its only one", held)
	}
	if got := reg.Snapshot().Gauges["netwide.epochs_tracked"]; got != 0 {
		t.Fatalf("netwide.epochs_tracked = %d after the seal, want 0", got)
	}
	if err := collector.SealEpochInto(sink, 0); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("second seal of epoch 0: err = %v, want ErrNoEpoch", err)
	}

	// Absent epoch: ErrNoEpoch, sink untouched.
	if err := collector.SealEpochInto(sink, 7); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("seal of absent epoch: err = %v, want ErrNoEpoch", err)
	}
	if len(sink.epochs) != 1 {
		t.Fatalf("sink called for an absent epoch: %v", sink.epochs)
	}
}

// TestSealEpochIntoRing wires the collector to the real query-serving
// ring: every sealed epoch's windowed answer must be bit-identical to
// the decode of the sketch the collector sealed, and sealing an epoch
// leaves the collector holding only the epochs above it.
func TestSealEpochIntoRing(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 5}
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)
	for epoch := uint32(0); epoch < 3; epoch++ {
		for _, agent := range []uint16{1, 2} {
			sk := core.NewBasic[flowkey.FiveTuple](cfg)
			for p := 0; p < 60; p++ {
				sk.Insert(flowkey.FiveTuple{SrcPort: agent, DstPort: uint16(p), Proto: 17}, uint64(1+int(epoch)+p%3))
			}
			if err := collector.ingest(Message{Type: MsgSketch, Epoch: epoch, AgentID: agent, Payload: encode(t, epoch, sk, 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ring := window.NewRing(4, cfg)
	sink := &recordSink{next: ring}
	for epoch := uint32(0); epoch < 3; epoch++ {
		if err := collector.SealEpochInto(sink, epoch); err != nil {
			t.Fatalf("seal epoch %d: %v", epoch, err)
		}
		var above []uint32
		for e := epoch + 1; e < 3; e++ {
			above = append(above, e)
		}
		if held := collector.Epochs(); !slices.Equal(held, above) {
			t.Fatalf("after sealing epoch %d the collector holds %v, want %v", epoch, held, above)
		}
		if got := reg.Snapshot().Gauges["netwide.epochs_tracked"]; got != int64(len(above)) {
			t.Fatalf("netwide.epochs_tracked = %d, %d epochs held", got, len(above))
		}
	}
	for i, epoch := range sink.epochs {
		tab, ok := epochTable(t, ring, uint32(epoch))
		if !ok {
			t.Fatalf("ring lost epoch %d", epoch)
		}
		if !reflect.DeepEqual(tab, sink.sketches[i].Decode()) {
			t.Fatalf("epoch %d: ring window differs from the sealed sketch's decode", epoch)
		}
	}
}

// TestSealNextSealsOldestHeldEpoch pins the serving rule: each call
// seals the oldest epoch the collector holds, with the agents folded
// into it, and reports nothing to seal once none is held. Epochs a
// coalesced report skipped are never waited for.
func TestSealNextSealsOldestHeldEpoch(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 5}
	collector := NewCollector(cfg)
	for _, rep := range []struct {
		agent uint16
		epoch uint32
	}{{1, 3}, {2, 1}, {1, 1}, {3, 3}, {2, 3}} {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		sk.Insert(flowkey.FiveTuple{SrcPort: rep.agent, Proto: 6}, 5)
		if err := collector.ingest(Message{Type: MsgSketch, Epoch: rep.epoch, AgentID: rep.agent, Payload: encode(t, rep.epoch, sk, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	ring := window.NewRing(4, cfg)
	for _, want := range []struct {
		epoch  uint32
		agents int
	}{{1, 2}, {3, 3}} {
		epoch, agents, ok, err := collector.SealNext(ring)
		if err != nil || !ok || epoch != want.epoch || agents != want.agents {
			t.Fatalf("SealNext = epoch %d, %d agents, ok %v, err %v; want epoch %d, %d agents", epoch, agents, ok, err, want.epoch, want.agents)
		}
		if tab, ok := epochTable(t, ring, epoch); !ok || len(tab) != agents {
			t.Fatalf("ring serves epoch %d as %v, want one flow per agent", epoch, tab)
		}
	}
	if _, _, ok, err := collector.SealNext(ring); ok || err != nil {
		t.Fatalf("SealNext with nothing held: ok %v, err %v", ok, err)
	}
}

// TestLateReportIsAcknowledgedCountedAndDropped: agent 1 reports epoch
// 0, the epoch is sealed, then agent 2 reports epoch 0 over the wire.
// The late report is acknowledged (the agent's spool drains) and
// counted, the collector does not store it, and the ring still serves
// only agent 1's packets: a sealed epoch is not amended.
func TestLateReportIsAcknowledgedCountedAndDropped(t *testing.T) {
	cfg := telNetCfg()
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)
	ring := window.NewRing(4, cfg)
	report := func(id uint16, packets int) *Agent {
		t.Helper()
		agent := NewAgent(id, cfg)
		for p := 0; p < packets; p++ {
			agent.Observe(flowkey.FiveTuple{SrcPort: id, DstPort: uint16(p % 16), Proto: 6}, 1)
		}
		agent.EndEpoch()
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- collector.Handle(server) }()
		if err := agent.Flush(client); err != nil {
			t.Fatalf("agent %d: %v", id, err)
		}
		client.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return agent
	}

	report(1, 3000)
	if _, _, ok, err := collector.SealNext(ring); !ok || err != nil {
		t.Fatalf("seal of epoch 0: ok %v, err %v", ok, err)
	}
	late := report(2, 3000)
	if n := late.PendingEpochs(); n != 0 {
		t.Fatalf("late report not acknowledged: %d epochs still spooled", n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netwide.late_reports"]; got != 1 {
		t.Errorf("netwide.late_reports = %d, want 1", got)
	}
	if got := snap.Counters["netwide.reports_received"]; got != 1 {
		t.Errorf("netwide.reports_received = %d, want 1 (the late report is not stored)", got)
	}
	if held := collector.Epochs(); len(held) != 0 {
		t.Errorf("collector holds epochs %v after a late report", held)
	}
	if got := snap.Gauges["netwide.epochs_tracked"]; got != 0 {
		t.Errorf("netwide.epochs_tracked = %d, want 0", got)
	}
	tab, ok := epochTable(t, ring, 0)
	if !ok {
		t.Fatal("ring lost epoch 0")
	}
	var mass uint64
	for k, v := range tab {
		if k.SrcPort != 1 {
			t.Fatalf("ring serves agent %d's flow %v", k.SrcPort, k)
		}
		mass += v
	}
	if mass != 3000 {
		t.Errorf("ring serves mass %d for epoch 0, agent 1 sent 3000", mass)
	}
}

// sinkFunc adapts a function to an EpochSink.
type sinkFunc func(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error

func (f sinkFunc) Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error { return f(epoch, sk) }

// TestReportDuringSealIsCountedLate: a report that lands for an epoch
// while the sink is sealing it is not in the sealed fold, so it is
// dropped with the epoch's shards and counted late, not kept.
func TestReportDuringSealIsCountedLate(t *testing.T) {
	cfg := telNetCfg()
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)
	ingest := func(agent uint16) {
		t.Helper()
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		sk.Insert(flowkey.FiveTuple{SrcPort: agent, Proto: 6}, 10)
		if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: agent, Payload: encode(t, 0, sk, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(1)
	var mass uint64
	sink := sinkFunc(func(_ uint64, sk *core.Basic[flowkey.FiveTuple]) error {
		ingest(2) // lands after the fold, before the seal returns
		mass = sk.SumValues()
		return nil
	})
	if err := collector.SealEpochInto(sink, 0); err != nil {
		t.Fatal(err)
	}
	if mass != 10 {
		t.Errorf("sealed mass %d, want agent 1's 10", mass)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netwide.late_reports"]; got != 1 {
		t.Errorf("netwide.late_reports = %d, want 1", got)
	}
	if held := collector.Epochs(); len(held) != 0 {
		t.Errorf("collector holds epochs %v after the seal", held)
	}
}

// TestSealNextUnderConcurrentReports runs three agents reporting
// epochs over their own connections while the serving rule seals
// concurrently (run it with -race). Every report is either folded into
// exactly one sealed epoch or counted late, and the ring serves
// exactly the folded reports' weight.
func TestSealNextUnderConcurrentReports(t *testing.T) {
	const (
		agents = 3
		epochs = 40
		weight = 7
	)
	cfg := telNetCfg()
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)
	ring := window.NewRing(agents*epochs, cfg)
	var wg sync.WaitGroup
	for a := 1; a <= agents; a++ {
		client, server := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := collector.Handle(server); err != nil {
				t.Error(err)
			}
		}()
		go func(id uint16) {
			defer wg.Done()
			defer client.Close()
			agent := NewAgent(id, cfg)
			for e := 0; e < epochs; e++ {
				agent.Observe(flowkey.FiveTuple{SrcPort: id, DstPort: uint16(e), Proto: 6}, weight)
				agent.EndEpoch()
				if err := agent.Flush(client); err != nil {
					t.Errorf("agent %d epoch %d: %v", id, e, err)
					return
				}
			}
		}(uint16(a))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	folded := 0
	seal := func() bool {
		_, n, ok, err := collector.SealNext(ring)
		if err != nil {
			t.Fatal(err)
		}
		folded += n
		return ok
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			seal()
		}
	}
	for seal() {
	}
	if held := collector.Epochs(); len(held) != 0 {
		t.Fatalf("collector holds epochs %v after the last seal", held)
	}
	late := int(reg.Snapshot().Counters["netwide.late_reports"])
	if folded+late != agents*epochs {
		t.Errorf("%d reports folded + %d late, %d sent", folded, late, agents*epochs)
	}
	eng, err := ring.Window(window.All())
	if err != nil {
		t.Fatal(err)
	}
	var mass uint64
	for _, v := range eng.FullTable() {
		mass += v
	}
	if mass != uint64(folded*weight) {
		t.Errorf("ring serves mass %d, %d reports of weight %d folded", mass, folded, weight)
	}
}

// TestCollectorStateBoundedOverManyEpochs is the soak: 10,000 small
// epochs from one agent through Collector.Handle, each sealed by the
// serving rule into a 4-epoch ring. After every seal the collector
// holds at most one epoch, and its gauge agrees.
func TestCollectorStateBoundedOverManyEpochs(t *testing.T) {
	const epochs = 10_000
	cfg := telNetCfg()
	reg := telemetry.New()
	collector := NewCollector(cfg).SetTelemetry(reg)
	ring := window.NewRing(4, cfg)
	tracked := reg.Gauge("netwide.epochs_tracked")
	agent := NewAgent(1, cfg)
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- collector.Handle(server) }()
	for e := 0; e < epochs; e++ {
		agent.Observe(flowkey.FiveTuple{SrcPort: uint16(e), Proto: 6}, 1)
		agent.EndEpoch()
		if err := agent.Flush(client); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		epoch, _, ok, err := collector.SealNext(ring)
		if err != nil || !ok || epoch != uint32(e) {
			t.Fatalf("SealNext after epoch %d: epoch %d, ok %v, err %v", e, epoch, ok, err)
		}
		if n := len(collector.Epochs()); n > 1 {
			t.Fatalf("epoch %d: collector holds %d epochs", e, n)
		}
		if n := tracked.Value(); n > 1 {
			t.Fatalf("epoch %d: netwide.epochs_tracked = %d", e, n)
		}
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if from, to, _ := ring.Bounds(); from != epochs-4 || to != epochs {
		t.Errorf("ring retains [%d,%d), want the last 4 epochs", from, to)
	}
}

// TestEpochIndependentOfArrivalOrder pins that one collector's epoch is
// a function of the reports it received, not of their arrival order:
// three agents' reports for one epoch go into fresh collectors in all
// six orders, and once more with a retried duplicate in the middle.
// Every sealed sketch must marshal to the same bytes and every table
// the ring serves for the epoch must be equal. The geometry is small enough that the agents'
// keys collide in most buckets, so a fold in arrival order would keep
// different keys.
func TestEpochIndependentOfArrivalOrder(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 32, Seed: 9}
	payloads := make(map[uint16][]byte)
	for _, agent := range []uint16{1, 2, 3} {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for p := 0; p < 200; p++ {
			sk.Insert(flowkey.FiveTuple{SrcPort: agent, DstPort: uint16(p), Proto: 6}, uint64(1+p%7))
		}
		payloads[agent] = encode(t, 0, sk, 1)
	}

	orders := [][]uint16{
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1},
		{2, 3, 2, 1}, // agent 2 retries after a lost ack
	}
	var want *core.Basic[flowkey.FiveTuple]
	var wantTable map[flowkey.FiveTuple]uint64
	for _, order := range orders {
		collector := NewCollector(cfg)
		for _, agent := range order {
			if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: agent, Payload: payloads[agent]}); err != nil {
				t.Fatalf("order %v: agent %d: %v", order, agent, err)
			}
		}
		if n := collector.AgentsReported(0); n != 3 {
			t.Fatalf("order %v: %d agents reported, want 3", order, n)
		}
		ring := window.NewRing(1, cfg)
		sink := &recordSink{next: ring}
		if err := collector.SealEpochInto(sink, 0); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		got := sink.sketches[0]
		table, ok := epochTable(t, ring, 0)
		if !ok {
			t.Fatalf("order %v: epoch 0 missing", order)
		}
		if want == nil {
			want, wantTable = got.Clone(), table
			continue
		}
		if !got.Equal(want) {
			t.Errorf("order %v: sealed sketch differs from order %v", order, orders[0])
		}
		if !reflect.DeepEqual(table, wantTable) {
			t.Errorf("order %v: served table differs from order %v", order, orders[0])
		}
	}
}

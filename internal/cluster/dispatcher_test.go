package cluster

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/telemetry"
)

var clusterCfg = core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 11}

// tcpBackend serves one netwide collector on a real TCP listener.
func tcpBackend(t *testing.T, cfg core.Config) (*netwide.Collector, string, func()) {
	t.Helper()
	c := netwide.NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(l) }()
	return c, l.Addr().String(), func() { l.Close() }
}

// TestDispatcherRealTCPSmoke drives agents through a dispatcher to
// two real collectors over TCP: every epoch must land on exactly the
// backend the table routes it to, and the cluster decode must equal
// the canonical fold of everything the agents sent.
func TestDispatcherRealTCPSmoke(t *testing.T) {
	c1, addr1, stop1 := tcpBackend(t, clusterCfg)
	defer stop1()
	c2, addr2, stop2 := tcpBackend(t, clusterCfg)
	defer stop2()

	d, err := NewDispatcher([]string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	go func() { _ = d.Serve(front) }()

	var observed uint64
	backends := map[string]*netwide.Collector{addr1: c1, addr2: c2}
	for _, id := range []uint16{1, 2, 3} {
		agent := netwide.NewAgent(id, clusterCfg)
		conn, err := net.Dial("tcp", front.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 4; e++ {
			for p := 0; p < 50; p++ {
				agent.Observe(flowkey.FiveTuple{SrcPort: id, DstPort: uint16(p), Proto: 6}, uint64(1+p%3))
				observed += uint64(1 + p%3)
			}
			agent.EndEpoch()
			if err := agent.Flush(conn); err != nil {
				t.Fatalf("agent %d epoch %d: %v", id, e, err)
			}
		}
		conn.Close()
	}

	// Placement: each (agent, epoch) shard sits at exactly the routed
	// backend and nowhere else.
	for _, id := range []uint16{1, 2, 3} {
		for e := uint32(0); e < 4; e++ {
			want, ok := d.Route(id, e)
			if !ok {
				t.Fatal("routing failed with all backends alive")
			}
			for addr, c := range backends {
				shards, _ := c.EpochShards(e)
				_, has := shards[id]
				if has != (addr == want) {
					t.Errorf("agent %d epoch %d: shard at %s = %v, routed to %s", id, e, addr, has, want)
				}
			}
		}
	}

	// Cluster decode covers all epochs and conserves total mass.
	if got := Epochs(c1, c2); len(got) != 4 {
		t.Fatalf("cluster holds epochs %v, want 4", got)
	}
	var mass uint64
	for e := uint32(0); e < 4; e++ {
		eng, ok := DecodeEpoch(e, c1, c2)
		if !ok {
			t.Fatalf("epoch %d missing from cluster decode", e)
		}
		for _, v := range eng.FullTable() {
			mass += v
		}
	}
	if mass != observed {
		t.Errorf("cluster mass %d, agents observed %d", mass, observed)
	}
}

// pipeBackend is an in-process backend reachable through a dispatcher
// SetDial hook: every dial hands the collector one end of a net.Pipe.
func pipeBackend(c *netwide.Collector) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			_ = c.Handle(server)
		}()
		return client, nil
	}
}

// TestDispatcherFailover kills one backend at the dial layer and pins
// the transparent-failover contract: the forward succeeds on the
// survivor within the same exchange, the corpse is marked down, and
// the telemetry records exactly one failover.
func TestDispatcherFailover(t *testing.T) {
	alive := netwide.NewCollector(clusterCfg)
	reg := telemetry.New()
	d, err := NewDispatcher([]string{"dead:1", "alive:1"})
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetry(reg)
	aliveDial := pipeBackend(alive)
	d.SetDial(func(addr string) (net.Conn, error) {
		if addr == "dead:1" {
			return nil, errors.New("connection refused")
		}
		return aliveDial()
	})

	// Find an (agent, epoch) pair the table routes to the dead backend
	// so the forward MUST fail over.
	agent, epoch := uint16(0), uint32(0)
	found := false
	for a := uint16(1); a < 100 && !found; a++ {
		for e := uint32(0); e < 10 && !found; e++ {
			if b, _ := d.Route(a, e); b == "dead:1" {
				agent, epoch, found = a, e, true
			}
		}
	}
	if !found {
		t.Fatal("no key routes to dead:1")
	}

	sk := core.NewBasic[flowkey.FiveTuple](clusterCfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 7)
	payload, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	msg := netwide.Message{Type: netwide.MsgSketch, Epoch: epoch, AgentID: agent, Payload: payload}
	if err := d.forward(msg); err != nil {
		t.Fatalf("forward did not fail over: %v", err)
	}
	if got := d.Healthy(); !reflect.DeepEqual(got, []string{"alive:1"}) {
		t.Errorf("Healthy = %v after failover, want [alive:1]", got)
	}
	if shards, ok := alive.EpochShards(epoch); !ok || shards[agent] == nil {
		t.Error("report did not land on the survivor")
	}
	snap := reg.Snapshot()
	for counter, want := range map[string]uint64{
		"cluster.forwards":       1,
		"cluster.forward_errors": 1,
		"cluster.failovers":      1,
		"cluster.backend_down":   1,
	} {
		if got := snap.Counters[counter]; got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
	if got := snap.Gauges["cluster.backends_alive"]; got != 1 {
		t.Errorf("backends_alive = %d, want 1", got)
	}

	// With the last backend also down, forwards fail explicitly.
	d.markDown("alive:1")
	if err := d.forward(msg); err == nil {
		t.Error("forward succeeded with every backend down")
	}
}

// TestHealthSweepHysteresis drives probe sweeps by hand and pins the
// thresholds: downAfter consecutive failures to mark down, upAfter
// consecutive successes to restore — single blips never flap the
// table — and recovery restores the exact pre-failure table.
func TestHealthSweepHysteresis(t *testing.T) {
	reg := telemetry.New()
	d, err := NewDispatcher([]string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetry(reg).SetHealth(DefaultProbeInterval, 2, 2)
	healthy := map[string]bool{"a:1": true, "b:1": true}
	d.SetProbe(func(addr string) error {
		if healthy[addr] {
			return nil
		}
		return errors.New("probe refused")
	})
	before := d.Table()
	streak := make(map[string]int)

	d.probeSweep(streak)
	healthy["a:1"] = false
	d.probeSweep(streak) // 1st failure: below threshold
	if got := d.Healthy(); len(got) != 2 {
		t.Fatalf("one failed probe already marked down: %v", got)
	}
	d.probeSweep(streak) // 2nd failure: down
	if got := d.Healthy(); !reflect.DeepEqual(got, []string{"b:1"}) {
		t.Fatalf("Healthy = %v after 2 failures, want [b:1]", got)
	}
	healthy["a:1"] = true
	d.probeSweep(streak) // 1st success: still down
	if got := d.Healthy(); len(got) != 1 {
		t.Fatalf("one clean probe already restored: %v", got)
	}
	d.probeSweep(streak) // 2nd success: restored
	if got := d.Healthy(); len(got) != 2 {
		t.Fatalf("Healthy = %v after recovery, want both", got)
	}
	if !d.Table().Equal(before) {
		t.Error("recovered table differs from the pre-failure table")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.backend_down"]; got != 1 {
		t.Errorf("backend_down = %d, want 1", got)
	}
	if got := snap.Counters["cluster.backend_up"]; got != 1 {
		t.Errorf("backend_up = %d, want 1", got)
	}
	if got := snap.Counters["cluster.rebalances"]; got != 2 {
		t.Errorf("rebalances = %d, want 2", got)
	}
}

// TestGatherEpochDedupsRetriedShards pins cluster-wide duplicate
// handling: when a retry after a failover lands the same (agent,
// epoch) report on a second backend, the union dedups by agent and
// the cluster decode equals the single-collector decode exactly.
func TestGatherEpochDedupsRetriedShards(t *testing.T) {
	sendReport := func(t *testing.T, c *netwide.Collector, agent uint16, epoch uint32, payload []byte) {
		t.Helper()
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			_ = c.Handle(server)
		}()
		msg := netwide.Message{Type: netwide.MsgSketch, Epoch: epoch, AgentID: agent, Payload: payload}
		if err := netwide.WriteMessage(client, msg); err != nil {
			t.Fatal(err)
		}
		if ack, err := netwide.ReadMessage(client); err != nil || ack.Type != netwide.MsgAck {
			t.Fatalf("ack = %+v, %v", ack, err)
		}
		client.Close()
		<-done
	}

	payloadFor := func(seed uint16) []byte {
		sk := core.NewBasic[flowkey.FiveTuple](clusterCfg)
		for p := 0; p < 40; p++ {
			sk.Insert(flowkey.FiveTuple{SrcPort: seed, DstPort: uint16(p % 7), Proto: 17}, uint64(1+p%5))
		}
		b, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	c1 := netwide.NewCollector(clusterCfg)
	c2 := netwide.NewCollector(clusterCfg)
	single := netwide.NewCollector(clusterCfg)
	pa, pb := payloadFor(1), payloadFor(2)

	// Agent 1's shard lands on BOTH cluster backends (lost-ack retry);
	// agent 2's on one. The single-collector reference sees each once.
	sendReport(t, c1, 1, 0, pa)
	sendReport(t, c2, 1, 0, pa)
	sendReport(t, c2, 2, 0, pb)
	sendReport(t, single, 1, 0, pa)
	sendReport(t, single, 2, 0, pb)

	union, ok := GatherEpoch(0, c1, c2)
	if !ok || len(union) != 2 {
		t.Fatalf("union has %d shards, want 2 (dedup by agent)", len(union))
	}
	clusterEng, ok := DecodeEpoch(0, c1, c2)
	if !ok {
		t.Fatal("cluster decode missing epoch 0")
	}
	singleEng, ok := single.Epoch(0)
	if !ok {
		t.Fatal("single collector missing epoch 0")
	}
	if !reflect.DeepEqual(clusterEng.FullTable(), singleEng.FullTable()) {
		t.Error("cluster decode differs from single-collector decode")
	}
}

// TestDispatcherRoutingIsReplicaConsistent pins that two dispatchers
// configured with the same backend set (in different order) route
// every key identically — no coordination needed between replicas.
func TestDispatcherRoutingIsReplicaConsistent(t *testing.T) {
	d1, err := NewDispatcher([]string{"a:1", "b:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDispatcher([]string{"c:1", "a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint16(0); a < 20; a++ {
		for e := uint32(0); e < 20; e++ {
			r1, ok1 := d1.Route(a, e)
			r2, ok2 := d2.Route(a, e)
			if r1 != r2 || ok1 != ok2 {
				t.Fatalf("replicas disagree on (%d, %d): %q vs %q", a, e, r1, r2)
			}
		}
	}
}

// TestEpochKey pins the routing key layout (agent high, epoch low).
func TestEpochKey(t *testing.T) {
	if got := EpochKey(0x0102, 0x03040506); got != 0x0000010203040506 {
		t.Errorf("EpochKey = %#x", got)
	}
	keys := make(map[uint64]string)
	for a := uint16(0); a < 8; a++ {
		for e := uint32(0); e < 8; e++ {
			k := EpochKey(a, e)
			if prev, dup := keys[k]; dup {
				t.Fatalf("EpochKey collision: (%d,%d) and %s", a, e, prev)
			}
			keys[k] = fmt.Sprintf("(%d,%d)", a, e)
		}
	}
}

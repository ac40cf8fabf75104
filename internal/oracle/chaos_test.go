package oracle

// Differential chaos gate: the network-wide plane, run over faultnet's
// seeded fault injection and sealed by the serving rule into a window
// ring, is compared against the exact Oracle. Weight conservation
// through the sketch pipeline is exact (every insert lands in some
// bucket; merge and serialization preserve bucket sums), so after a
// faulty-but-recovered run the totals the ring serves must equal the
// Oracle's — not approximately, exactly. And because a retry re-sends
// the identical serialized sketch, a run whose faults destroy no
// snapshots must serve tables bit-identical to a fault-free local
// reference.

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/faultnet"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

// chaosCfg keeps reports small while still exercising real kickouts.
func chaosCfg() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 256, Seed: 77}
}

// runFaultyPipeline ships tr through one agent over a seeded faulty
// network in the given number of epochs and, once every epoch is
// delivered, seals each epoch the collector holds with SealNext into a
// ring on the network's virtual clock that retains them all, and
// returns the ring.
func runFaultyPipeline(t *testing.T, seed uint64, tr *trace.Trace, epochs int, f faultnet.Faults) *window.Ring {
	t.Helper()
	cfg := chaosCfg()
	n := faultnet.New(seed, f)
	l, err := n.Listen("collector")
	if err != nil {
		t.Fatal(err)
	}
	coll := netwide.NewCollector(cfg).
		SetClock(n).
		SetIdleTimeout(time.Minute).
		SetSpawn(n.Go)
	n.Go(func() { _ = coll.Serve(l) })

	agent := netwide.NewAgent(1, cfg).
		SetClock(n).
		SetWriteTimeout(10*time.Second).
		SetBackoff(netwide.NewBackoff(netwide.DefaultBackoffBase, netwide.DefaultBackoffMax, seed)).
		SetSpool(epochs+1, netwide.SpoolCoalesce) // roomy: no snapshot is ever destroyed

	n.Go(func() {
		defer l.Close()
		dial := func() (net.Conn, error) { return n.Dial("collector") }
		conn, err := dial()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		per := (len(tr.Packets) + epochs - 1) / epochs
		for e := 0; e < epochs; e++ {
			lo, hi := e*per, (e+1)*per
			if hi > len(tr.Packets) {
				hi = len(tr.Packets)
			}
			for _, p := range tr.Packets[lo:hi] {
				agent.Observe(p.Key, 1)
			}
			agent.EndEpoch()
			conn, _ = agent.FlushWithRedial(conn, dial, 8)
		}
		for tries := 0; agent.PendingEpochs() > 0 && tries < 20; tries++ {
			conn, _ = agent.FlushWithRedial(conn, dial, 8)
		}
		if agent.PendingEpochs() != 0 {
			t.Errorf("spool not drained: %d epochs pending", agent.PendingEpochs())
		}
	})
	n.Wait()

	ring := window.NewRing(epochs, cfg).SetClock(n.Now)
	for {
		_, _, ok, err := coll.SealNext(ring)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if held := coll.Epochs(); len(held) != 0 {
		t.Fatalf("collector holds epochs %v after the last seal", held)
	}
	return ring
}

// epochTable returns the full-key table ring serves for epoch e, and
// whether ring holds e.
func epochTable(t *testing.T, ring *window.Ring, e int) (map[flowkey.FiveTuple]uint64, bool) {
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

// TestChaosCollectorTotalMatchesOracle checks exact weight
// conservation end to end under injected faults: the sum of the
// per-epoch tables the ring serves equals the exact Oracle total for
// the trace, with zero tolerance.
func TestChaosCollectorTotalMatchesOracle(t *testing.T) {
	tr := trace.CAIDALike(20_000, 99)
	exact := FromTrace(tr)
	const epochs = 4

	ring := runFaultyPipeline(t, 5, tr, epochs, faultnet.Faults{
		Latency:     20 * time.Millisecond,
		Jitter:      10 * time.Millisecond,
		DropProb:    0.2,
		PartialProb: 0.1,
	})

	var total uint64
	for e := 0; e < epochs; e++ {
		tab, ok := epochTable(t, ring, e)
		if !ok {
			t.Fatalf("epoch %d missing after recovery", e)
		}
		for _, v := range tab {
			total += v
		}
	}
	if total != exact.Total() {
		t.Fatalf("decoded total %d != oracle total %d (weight not conserved)", total, exact.Total())
	}
}

// TestChaosDecodeBitIdenticalAfterRecovery checks the stronger gate:
// when faults force retries but destroy no snapshot, every epoch the
// ring serves is bit-identical to the decode of a fault-free local
// reference sketch fed the same packets — recovery re-sends the same
// bytes, and the transport faults leave no trace in the measurement.
func TestChaosDecodeBitIdenticalAfterRecovery(t *testing.T) {
	tr := trace.CAIDALike(12_000, 42)
	cfg := chaosCfg()
	const epochs = 3

	ring := runFaultyPipeline(t, 11, tr, epochs, faultnet.Faults{
		DropProb:  0.25,
		ResetProb: 0.1,
	})

	per := (len(tr.Packets) + epochs - 1) / epochs
	for e := 0; e < epochs; e++ {
		lo, hi := e*per, (e+1)*per
		if hi > len(tr.Packets) {
			hi = len(tr.Packets)
		}
		ref := core.NewBasic[flowkey.FiveTuple](cfg)
		for _, p := range tr.Packets[lo:hi] {
			ref.Insert(p.Key, 1)
		}
		tab, ok := epochTable(t, ring, e)
		if !ok {
			t.Fatalf("epoch %d missing after recovery", e)
		}
		if !reflect.DeepEqual(tab, ref.Decode()) {
			t.Errorf("epoch %d decode differs from fault-free reference", e)
		}
	}
}

package oracle

// Served-path accuracy ledger: the path /query serves — each agent's
// fat sketch, its compressed stage over the wire, the collector's
// per-epoch fold across agents, and the sliding window over the folds —
// scored against the exact oracle after each lossy layer. Every layer
// conserves mass exactly, so a dropped agent or epoch shows as a short
// total; heavy-hitter F1 and ARE are held to per-layer bounds set just
// past the values this seeded run measures, so an accuracy loss on the
// served path fails tier-1. The window sums the folds' tables, so it
// adds no loss of its own: it must equal the folds layer row for row.

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/metrics"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/tasks"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

// The ledger's geometry: two agents sample one flow population and
// report ledgerWindow epochs of ledgerPackets packets each at
// ledgerShrink; the ring holds exactly those epochs.
const (
	ledgerAgents  = 2
	ledgerWindow  = 8
	ledgerPackets = 50_000 // per agent-epoch
	ledgerShrink  = 8
	ledgerMem     = 128 << 10
)

// ledgerLayers are the served path's lossy layers in path order, with
// the F1 floor and ARE ceiling each must hold at both seeds.
var ledgerLayers = []struct {
	name   string
	minF1  float64
	maxARE float64
}{
	{"fat tables", 0.97, 0.03},
	{"stages", 0.74, 0.33},
	{"folds", 0.63, 0.48},
}

// TestServedPathLedger runs the served path at seeds 1 and 2 and checks
// each lossy layer's mass and accuracy bounds, and that the window
// serves exactly the folds layer's tables.
func TestServedPathLedger(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			truth, layers, served := runServedPath(t, seed)
			folds := layers[len(layers)-1]
			for _, m := range append(Masks(), flowkey.Mask{}) {
				if got, want := served(m), folds(m); !reflect.DeepEqual(got, want) {
					t.Errorf("window under %v: %d groups differ from the folds layer's %d", m, len(got), len(want))
				}
			}
			fed := uint64(ledgerAgents * ledgerWindow * ledgerPackets)
			for i, layer := range ledgerLayers {
				est := layers[i]
				var mass uint64
				for _, v := range est(flowkey.MaskAll()) {
					mass += v
				}
				if mass != fed {
					t.Errorf("%s: mass %d, %d packets fed", layer.name, mass, fed)
				}
				f1, are := hhScore(truth, est)
				t.Logf("%s: F1 %.4f ARE %.4f", layer.name, f1, are)
				if f1 < layer.minF1 {
					t.Errorf("%s: F1 %.4f below floor %.2f", layer.name, f1, layer.minF1)
				}
				if are > layer.maxARE {
					t.Errorf("%s: ARE %.4f above ceiling %.3f", layer.name, are, layer.maxARE)
				}
			}
		})
	}
}

// runServedPath drives one seeded run through the public APIs: agents
// with the report codec at ledgerShrink, net.Pipe connections into
// Collector.Handle, and SealEpochInto a ring at the stage geometry. It
// returns the exact oracle over every packet fed and, per layer of
// ledgerLayers and for the window the ring serves, the estimated
// partial-key table for a mask.
func runServedPath(t *testing.T, seed uint64) (*Oracle, []func(flowkey.Mask) map[flowkey.FiveTuple]uint64, func(flowkey.Mask) map[flowkey.FiveTuple]uint64) {
	t.Helper()
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, ledgerMem, seed))
	codec, err := report.New[flowkey.FiveTuple](cfg, ledgerShrink)
	if err != nil {
		t.Fatal(err)
	}
	stageCfg := cfg
	stageCfg.BucketsPerArray /= ledgerShrink
	collector := netwide.NewCollector(cfg)
	ring := window.NewRing(ledgerWindow, stageCfg)

	pop := trace.NewPopulation(trace.CAIDAConfig(ledgerWindow*ledgerPackets, seed))
	truth := make(map[flowkey.FiveTuple]uint64)
	agents := make([]*netwide.Agent, ledgerAgents)
	samples := make([]*trace.Trace, ledgerAgents)
	conns := make([]net.Conn, ledgerAgents)
	var handlers sync.WaitGroup
	for a := range agents {
		agents[a] = netwide.NewAgent(uint16(a+1), cfg).SetCodec(codec)
		samples[a] = pop.Sample(fmt.Sprintf("agent%d", a+1), ledgerWindow*ledgerPackets, nil, seed^uint64(a+1)*0x9e3779b97f4a7c15)
		client, server := net.Pipe()
		conns[a] = client
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer server.Close()
			if err := collector.Handle(server); err != nil {
				t.Error(err)
			}
		}()
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		handlers.Wait()
	}()

	fat := make(map[flowkey.FiveTuple]uint64)
	stages := make(map[flowkey.FiveTuple]uint64)
	folds := make(map[flowkey.FiveTuple]uint64)
	for e := 0; e < ledgerWindow; e++ {
		for a, agent := range agents {
			for _, p := range samples[a].Packets[e*ledgerPackets : (e+1)*ledgerPackets] {
				agent.Observe(p.Key, 1)
				truth[p.Key]++
			}
			agent.EndEpoch()
			addTable(fat, agent.LocalStage().Decode())
			stage, err := agent.LocalStage().ExtractStage(ledgerShrink)
			if err != nil {
				t.Fatal(err)
			}
			addTable(stages, stage.Decode())
			if err := agent.Flush(conns[a]); err != nil {
				t.Fatalf("agent %d epoch %d: %v", a+1, e, err)
			}
		}
		engine, ok := collector.Epoch(uint32(e))
		if !ok {
			t.Fatalf("collector missing epoch %d", e)
		}
		addTable(folds, engine.FullTable())
		if err := collector.SealEpochInto(ring, uint32(e)); err != nil {
			t.Fatalf("seal epoch %d: %v", e, err)
		}
	}

	rg := ring.LastN(ledgerWindow)
	summed := func(table map[flowkey.FiveTuple]uint64) func(flowkey.Mask) map[flowkey.FiveTuple]uint64 {
		return func(m flowkey.Mask) map[flowkey.FiveTuple]uint64 { return aggregate(table, m) }
	}
	served := func(m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
		out, err := ring.GroupBy(rg, m)
		if err != nil {
			t.Fatalf("window %v: %v", rg, err)
		}
		return out
	}
	layers := []func(flowkey.Mask) map[flowkey.FiveTuple]uint64{summed(fat), summed(stages), summed(folds)}
	return FromCounts("served-path", truth), layers, served
}

// addTable adds every row of src into dst.
func addTable(dst, src map[flowkey.FiveTuple]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

// hhScore scores heavy-hitter answers against exact ground truth: for
// each mask of Masks(), the flows at or above
// tasks.DefaultThresholdFraction of the traffic, F1 of the reported set
// and average relative error over the true set, both averaged over the
// masks.
func hhScore(truth *Oracle, estimate func(flowkey.Mask) map[flowkey.FiveTuple]uint64) (f1, are float64) {
	masks := Masks()
	threshold := tasks.Threshold(truth.Total(), tasks.DefaultThresholdFraction)
	for _, m := range masks {
		est := estimate(m)
		want := truth.HeavyHitters(m, tasks.DefaultThresholdFraction)
		f1 += metrics.Compare(want, tasks.HeavyHitters(est, threshold)).F1
		are += metrics.ARE(want, func(k flowkey.FiveTuple) uint64 { return est[k] })
	}
	n := float64(len(masks))
	return f1 / n, are / n
}

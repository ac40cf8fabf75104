package netwide_test

import (
	"fmt"
	"net"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// Example wires one agent to a collector over an in-memory connection:
// the agent measures an epoch of traffic, seals it and flushes the
// serialized sketch, and the collector answers a network-wide query.
// Sharing one core.Config between both sides is what makes the
// sketches mergeable.
func Example() {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 1024, Seed: 7}
	collector := netwide.NewCollector(cfg)
	agent := netwide.NewAgent(1, cfg)

	agentConn, collectorConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = collector.Handle(collectorConn)
	}()

	tr := trace.CAIDALike(50_000, 7)
	for i := range tr.Packets {
		agent.Observe(tr.Packets[i].Key, 1)
	}
	agent.EndEpoch()
	if err := agent.Flush(agentConn); err != nil {
		panic(err)
	}
	agentConn.Close()
	<-done

	fmt.Println("agents reported:", collector.AgentsReported(0))
	_, ok := collector.Epoch(0)
	fmt.Println("epoch queryable:", ok)
	// Output:
	// agents reported: 1
	// epoch queryable: true
}

// ExampleAgent_Absorb scales one vantage point across cores: a
// shard.Engine ingests the epoch's traffic with 4 workers, and its
// merged snapshot is absorbed into the agent's epoch sketch. The
// engine's workers share the agent's Config, so every merge along the
// way is estimate-preserving.
func ExampleAgent_Absorb() {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 1024, Seed: 7}
	agent := netwide.NewAgent(1, cfg)

	tr := trace.CAIDALike(50_000, 7)
	eng := shard.NewBasic(shard.Config{Workers: 4, Seed: 7}, cfg)
	eng.Ingest(tr.Packets)
	eng.Close()

	merged, err := eng.Snapshot()
	if err != nil {
		panic(err)
	}
	if err := agent.Absorb(merged); err != nil {
		panic(err)
	}
	fmt.Println("epoch:", agent.Epoch())
	// Output:
	// epoch: 0
}

// ExampleAgent_SetCodec ships shrink-8 stages — what `cocoagent
// -report-shrink 8` sets up. The agent keeps its fat sketch locally and
// ships 1/8-size stages; the collector needs no setting, because every
// report names its shrink. Telemetry shows the wire savings against
// the full-snapshot baseline.
func ExampleAgent_SetCodec() {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 7}
	codec, err := report.New[flowkey.FiveTuple](cfg, 8)
	if err != nil {
		panic(err)
	}

	reg := telemetry.New()
	collector := netwide.NewCollector(cfg)
	agent := netwide.NewAgent(1, cfg).SetTelemetry(reg).SetCodec(codec)

	agentConn, collectorConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = collector.Handle(collectorConn)
	}()

	tr := trace.CAIDALike(50_000, 7)
	for epoch := 0; epoch < 2; epoch++ {
		for i := range tr.Packets {
			agent.Observe(tr.Packets[i].Key, 1)
		}
		agent.EndEpoch()
		if err := agent.Flush(agentConn); err != nil {
			panic(err)
		}
	}
	agentConn.Close()
	<-done

	snap := reg.Snapshot()
	raw, wire := snap.Counters["netwide.report_raw_bytes"], snap.Counters["netwide.report_bytes"]
	_, ok := collector.Epoch(1)
	fmt.Println("both epochs delivered:", ok)
	fmt.Println("wire bytes at least 5x below snapshots:", raw >= 5*wire)
	// Output:
	// both epochs delivered: true
	// wire bytes at least 5x below snapshots: true
}

// Command cocoagent runs one network-wide measurement vantage point:
// it measures traffic (a pcap file or a synthetic trace) into a
// CocoSketch, and at the end of each epoch seals the sketch into the
// agent's spool and flushes the spool to a cococollector.
//
// A -pcap capture is streamed through shard.ReplayPCAPBasic, one
// reader steering its frames to one receive queue per -workers, so
// memory stays bounded by the sketches, not the capture. A synthetic
// trace at -workers > 1 is ingested through the sharded engine
// (internal/shard). Either way N workers each update a private sketch,
// and the merged sketch is absorbed into the agent's epoch sketch
// before it is sealed. Sketch memory is per worker (merge
// compatibility requires all shards to share one geometry).
//
// With -telemetry the agent serves its runtime counters as expvar-style
// JSON on /debug/vars and mounts net/http/pprof under /debug/pprof/.
//
// Without -spool the agent exits 1 on the first epoch it cannot
// deliver. With -spool N it runs hardened: the spool holds up to N
// coalescing epochs and the agent keeps measuring through collector
// outages, flushing the backlog when connectivity returns (exit 1 only
// if epochs remain undelivered at the end). -write-timeout bounds each
// report exchange.
//
// -report-shrink N ships each epoch as a stage of 1/N of the buckets
// per array (DESIGN.md §14); the default 1 ships the whole epoch
// sketch, losslessly. All agents and the collector must agree on -mem,
// -d and -seed; both round the memory-derived bucket count down to a
// multiple of report.GeometryAlign, so any power-of-two -report-shrink
// up to it divides the shared geometry. Agents may differ in
// -report-shrink, but the collector merges only the reports of one
// epoch that share a shrink.
//
// Usage:
//
//	cocoagent -id 1 -collector 127.0.0.1:7700 -pcap site1.pcap
//	cocoagent -id 2 -collector 127.0.0.1:7700 -packets 500000 -epochs 3
//	cocoagent -id 3 -collector 127.0.0.1:7700 -packets 5000000 -workers 4 -telemetry 127.0.0.1:7701
//	cocoagent -id 4 -collector 127.0.0.1:7700 -packets 500000 -report-shrink 8
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, measures the
// configured epochs and reports them, writing progress to stdout and
// failures to stderr. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocoagent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.Uint("id", 0, "agent id (unique per vantage point)")
		collector = fs.String("collector", "127.0.0.1:7700", "collector address")
		pcapPath  = fs.String("pcap", "", "pcap file to measure (default: synthetic)")
		packets   = fs.Int("packets", 500_000, "synthetic packets per epoch when -pcap is unset")
		epochs    = fs.Int("epochs", 1, "number of epochs to report")
		memKB     = fs.Int("mem", 500, "shared sketch memory in KB")
		d         = fs.Int("d", core.DefaultArrays, "shared number of arrays")
		seed      = fs.Uint64("seed", 1, "shared sketch seed")
		workers   = fs.Int("workers", 1, "ingest workers per epoch (sharded engine when > 1)")
		telAddr   = fs.String("telemetry", "", "serve /debug/vars and /debug/pprof on this address (off when empty)")
		redials   = fs.Int("redials", 2, "redial attempts per epoch report")
		spool     = fs.Int("spool", 0, "bound undelivered epochs in a coalescing spool and keep measuring through collector outages (0 = fail fast on report error)")
		writeTO   = fs.Duration("write-timeout", 0, "deadline per report exchange, so a stalled collector cannot block the agent (0 = none)")
		shrink    = fs.Int("report-shrink", 1, "ship each epoch as a stage of 1/N of the buckets per array (a power of two up to 64; 1 = the whole sketch, lossless; DESIGN.md §14)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *d < 1 {
		fmt.Fprintf(stderr, "cocoagent: -d must be at least 1, got %d\n", *d)
		return 2
	}
	if *memKB < 1 {
		fmt.Fprintf(stderr, "cocoagent: -mem must be at least 1 (KB), got %d\n", *memKB)
		return 2
	}
	if *packets < 0 {
		fmt.Fprintf(stderr, "cocoagent: -packets must be non-negative, got %d\n", *packets)
		return 2
	}

	reg := telemetry.Disabled
	if *telAddr != "" {
		reg = telemetry.New()
		addr, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "cocoagent: telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: listening on %s\n", addr)
	}

	// Memory-derived bucket counts rarely divide by a shrink factor;
	// the collector rounds identically, so the geometries agree.
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](*d, *memKB*1024, *seed))
	codec, err := report.New[flowkey.FiveTuple](cfg, *shrink)
	if err != nil {
		fmt.Fprintf(stderr, "cocoagent: -report-shrink: %v\n", err)
		return 2
	}
	agent := netwide.NewAgent(uint16(*id), cfg).SetTelemetry(reg).SetWriteTimeout(*writeTO).SetCodec(codec)
	if *spool > 0 {
		agent.SetSpool(*spool, netwide.SpoolCoalesce)
	}

	dial := func() (net.Conn, error) { return net.Dial("tcp", *collector) }
	conn, err := dial()
	if err != nil {
		fmt.Fprintf(stderr, "cocoagent: %v\n", err)
		return 1
	}
	defer func() { conn.Close() }()

	for e := 0; e < *epochs; e++ {
		measured, err := measureEpoch(agent, cfg, reg, *pcapPath, *workers, *packets, *seed+uint64(*id)*1000+uint64(e))
		if err != nil {
			fmt.Fprintf(stderr, "cocoagent: %v\n", err)
			return 1
		}
		agent.EndEpoch()
		if conn, err = agent.FlushWithRedial(conn, dial, *redials); err != nil {
			if *spool == 0 {
				fmt.Fprintf(stderr, "cocoagent: report: %v\n", err)
				return 1
			}
			// Hardened mode: the epochs ride along and flush once
			// connectivity returns.
			fmt.Fprintf(stderr, "cocoagent: epoch %d spooled, delivery pending: %v\n", e, err)
			continue
		}
		fmt.Fprintf(stdout, "agent %d: epoch %d reported (%d packets)\n", *id, e, measured)
	}
	if agent.PendingEpochs() > 0 {
		if conn, err = agent.FlushWithRedial(conn, dial, *redials); err != nil || agent.PendingEpochs() > 0 {
			fmt.Fprintf(stderr, "cocoagent: %d epochs undelivered (%d units of weight)\n",
				agent.PendingEpochs(), agent.PendingWeight())
			return 1
		}
	}
	return 0
}

// measureEpoch measures one epoch's traffic into agent and returns the
// packet count: the capture at pcapPath, replayed on one receive queue
// per worker, or a synthetic trace drawn with traceSeed, ingested by
// the sharded engine when workers > 1.
func measureEpoch(agent *netwide.Agent, cfg core.Config, reg *telemetry.Registry, pcapPath string, workers, packets int, traceSeed uint64) (uint64, error) {
	if pcapPath != "" {
		f, err := os.Open(pcapPath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		sk, st, err := shard.ReplayPCAPBasic(shard.ReplayConfig{Queues: max(workers, 1), Seed: cfg.Seed, Telemetry: reg}, cfg, f)
		if err != nil {
			return 0, err
		}
		if err := agent.Absorb(sk); err != nil {
			return 0, fmt.Errorf("absorb: %w", err)
		}
		return st.Packets, nil
	}
	tr := trace.CAIDALike(packets, traceSeed)
	if workers <= 1 {
		for i := range tr.Packets {
			agent.Observe(tr.Packets[i].Key, 1)
		}
		return uint64(len(tr.Packets)), nil
	}
	eng := shard.NewBasic(shard.Config{Workers: workers, Seed: cfg.Seed, Telemetry: reg}, cfg)
	eng.Ingest(tr.Packets)
	eng.Close()
	merged, err := eng.Snapshot()
	if err != nil {
		return 0, fmt.Errorf("sharded ingest: %w", err)
	}
	if err := agent.Absorb(merged); err != nil {
		return 0, fmt.Errorf("absorb: %w", err)
	}
	return uint64(len(tr.Packets)), nil
}

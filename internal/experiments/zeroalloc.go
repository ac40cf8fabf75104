package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func init() {
	register("ext-zeroalloc", runZeroAlloc)
}

// zeroAllocSnapLen keeps the in-memory capture small: headers plus a
// little payload is all the decode path touches, so a short snapshot
// length changes nothing about the measurement while keeping a
// multi-million-packet capture in tens of megabytes.
const zeroAllocSnapLen = 128

// runZeroAlloc compares pcap replay paths into the same sketch
// geometry: the legacy decode-then-ingest path (trace.FromPCAP
// materializes every packet on the heap, then a sequential sketch
// consumes the keys) against the pooled zero-allocation pipeline at one
// queue and at N simulated receive queues (shard.ReplayPCAPBasic). The
// runner verifies bit-identical decode tables across all paths before
// reporting throughput — a speedup that changed the sketch state would
// be meaningless.
func runZeroAlloc(cfg RunConfig) (*TableResult, error) {
	n := cfg.packets()
	tr := trace.CAIDALike(n, cfg.Seed)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, zeroAllocSnapLen); err != nil {
		return nil, err
	}
	data := capture.Bytes()

	queues := cfg.Workers
	if queues <= 0 {
		if queues = runtime.GOMAXPROCS(0); queues > 4 {
			queues = 4
		}
	}
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, cfg.Seed+7)

	out := &TableResult{
		ID:      "ext-zeroalloc",
		Title:   "Zero-allocation pcap ingest: legacy decode-then-ingest vs pooled pipeline",
		Columns: []string{"path", "queues", "Mpps", "speedup"},
		Notes: []string{
			"pooled pipeline: per-queue reader buffer + key extraction in the reader + keyed-record rings under an in-flight bound (DESIGN.md §13); zero heap allocations per packet in steady state",
			fmt.Sprintf("host has GOMAXPROCS=%d; the multi-queue row needs physical cores to scale", runtime.GOMAXPROCS(0)),
		},
	}

	// Legacy path: FromPCAP allocates the whole trace, a sequential
	// sketch consumes it. Timed end to end — the allocation cost is the
	// point of comparison.
	start := time.Now()
	legacyTrace, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	legacy := core.NewBasic[flowkey.FiveTuple](sketchCfg)
	keys := make([]flowkey.FiveTuple, len(legacyTrace.Packets))
	ws := make([]uint64, len(legacyTrace.Packets))
	for i := range legacyTrace.Packets {
		keys[i] = legacyTrace.Packets[i].Key
		ws[i] = uint64(legacyTrace.Packets[i].Size)
	}
	if cfg.Bytes {
		legacy.InsertBatch(keys, ws)
	} else {
		legacy.InsertBatchUnit(keys)
	}
	legacySec := time.Since(start).Seconds()
	legacyMpps := float64(len(legacyTrace.Packets)) / legacySec / 1e6
	out.AddRow("legacy decode+ingest", 1, legacyMpps, 1.0)
	wantTable := legacy.Decode()

	// Pooled pipeline, one queue: same stream, no per-packet heap.
	replayCfg := shard.ReplayConfig{
		Queues: 1, Seed: cfg.Seed, Bytes: cfg.Bytes, Telemetry: cfg.Telemetry,
	}
	start = time.Now()
	pooled1, st1, err := shard.ReplayPCAPBasic(replayCfg, sketchCfg, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	pooled1Sec := time.Since(start).Seconds()
	if st1.Packets != uint64(len(legacyTrace.Packets)) {
		return nil, fmt.Errorf("ext-zeroalloc: pooled 1-queue replayed %d packets, legacy decoded %d",
			st1.Packets, len(legacyTrace.Packets))
	}
	if err := diffDecodeTables(pooled1.Decode(), wantTable); err != nil {
		return nil, fmt.Errorf("ext-zeroalloc: pooled 1-queue decode diverges: %w", err)
	}
	mpps1 := float64(st1.Packets) / pooled1Sec / 1e6
	out.AddRow("pooled", 1, mpps1, mpps1/legacyMpps)

	// Pooled pipeline, N queues: partition once (setup, untimed — a
	// real NIC splits in hardware), then replay concurrently. Verified
	// against the in-memory feed of the same stream with the same seed
	// (shard.ReplayPackets over the decoded packets): the RSS split is
	// shared, so the merged sketches must match bit for bit.
	if queues > 1 {
		qs, err := pcap.PartitionRSS(bytes.NewReader(data), queues, cfg.Seed)
		if err != nil {
			return nil, err
		}
		replayCfg.Queues = queues
		start = time.Now()
		pooledN, stN, err := shard.ReplayQueues(replayCfg, shard.NewBasicFactory(sketchCfg, cfg.Telemetry), qs)
		if err != nil {
			return nil, err
		}
		pooledNSec := time.Since(start).Seconds()
		if stN.Packets != st1.Packets {
			return nil, fmt.Errorf("ext-zeroalloc: %d-queue replay saw %d packets, 1-queue saw %d",
				queues, stN.Packets, st1.Packets)
		}
		fed, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: queues, Seed: cfg.Seed, Bytes: cfg.Bytes},
			shard.NewBasicFactory(sketchCfg, nil), legacyTrace.Packets)
		if err != nil {
			return nil, err
		}
		if err := diffDecodeTables(pooledN.Decode(), fed.Decode()); err != nil {
			return nil, fmt.Errorf("ext-zeroalloc: pooled %d-queue decode diverges from the %d-queue in-memory feed: %w",
				queues, queues, err)
		}
		mppsN := float64(stN.Packets) / pooledNSec / 1e6
		out.AddRow("pooled", queues, mppsN, mppsN/legacyMpps)
	}
	return out, nil
}

// diffDecodeTables reports the first divergence between two decode
// tables, or nil when they are identical.
func diffDecodeTables(got, want map[flowkey.FiveTuple]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("table sizes %d vs %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("key %v: %d vs %d (present=%v)", k, g, w, ok)
		}
	}
	return nil
}

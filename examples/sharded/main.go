// Sharded multi-core ingest: the paper's OVS scaling architecture
// (§6.1 — one sketch per dataplane thread, merged at decode) as the
// replay pipeline of internal/shard fed from memory. One feed
// RSS-steers packets to N receive queues over SPSC rings; each queue's
// worker batch-inserts into a private CocoSketch; the run ends by
// merging the queue sketches.
//
// Run: go run ./examples/sharded
package main

import (
	"fmt"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func main() {
	tr := trace.CAIDALike(1_000_000, 5)
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 9)

	// Throughput sweep: Mpps vs worker count (needs physical cores to
	// actually climb; the correctness properties hold regardless). The
	// 4-worker sketch is kept for the query below.
	var merged *core.Basic[flowkey.FiveTuple]
	fmt.Printf("%-8s  %-10s  %-10s\n", "workers", "Mpps", "mass-ok")
	for _, workers := range []int{1, 2, 4} {
		start := time.Now()
		s, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: workers, Seed: 5},
			shard.NewBasicFactory(sketchCfg, nil), tr.Packets)
		if err != nil {
			panic(err)
		}
		mpps := float64(len(tr.Packets)) / time.Since(start).Seconds() / 1e6
		fmt.Printf("%-8d  %-10.2f  %-10v\n",
			workers, mpps, s.SumValues() == uint64(len(tr.Packets)))
		merged = s
	}

	engine := query.NewEngine(merged.Decode())
	m := flowkey.MaskFields(flowkey.FieldSrcIP)
	fmt.Println("\ntop sources measured by 4 workers:")
	fmt.Print(query.FormatRows(m, engine.Top(m, 5), 5))
}

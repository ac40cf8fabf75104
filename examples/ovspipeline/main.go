// OVS-style pipeline: the paper's software-switch deployment (§6/§B).
// Receive-side scaling spreads raw Ethernet frames over Rx queues; per
// queue, a datapath poller parses each frame and writes its key into a
// lock-free ring, a measurement thread updates its own CocoSketch from
// the ring, and the per-queue sketches are merged at the end — the
// architecture that saturated a 40G NIC with two threads in the paper.
//
// Run: go run ./examples/ovspipeline
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/pcap"
	"cocosketch/internal/query"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func main() {
	// Build the workload as a capture of raw frames, as a NIC would
	// deliver them.
	tr := trace.CAIDALike(300_000, 5)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, 128); err != nil {
		log.Fatal(err)
	}
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, 9)

	// Sweep thread (Rx queue) counts like Figure 15(a).
	fmt.Printf("%-8s  %-10s  %-8s\n", "threads", "packets", "Mpps")
	for _, threads := range []int{1, 2, 4} {
		// The NIC's RSS split: queue i holds the flows hashed to it.
		queues, err := pcap.PartitionRSS(bytes.NewReader(capture.Bytes()), threads, 9)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		merged, st, err := shard.ReplayQueues(shard.ReplayConfig{Seed: 9},
			shard.NewBasicFactory(sketchCfg, nil), queues)
		if err != nil {
			log.Fatal(err)
		}
		mpps := float64(st.Packets) / time.Since(start).Seconds() / 1e6
		fmt.Printf("%-8d  %-10d  %-8.2f\n", threads, st.Packets, mpps)

		if threads == 4 {
			engine := query.NewEngine(merged.Decode())
			m := flowkey.MaskFields(flowkey.FieldSrcIP)
			fmt.Println("\ntop sources measured by the 4-thread pipeline:")
			fmt.Print(query.FormatRows(m, engine.Top(m, 5), 5))
		}
	}
}

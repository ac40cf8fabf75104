package shard_test

import (
	"bytes"
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

// Example runs the multi-core pipeline on an in-memory trace: one
// feed RSS-steers the packets to four receive queues, each queue's
// worker inserts into its own sketch, and the run ends by merging them.
// The merged counter mass equals the packet count — steering, rings and
// merging are lossless.
func Example() {
	tr := trace.CAIDALike(100_000, 1)

	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 1)
	merged, st, err := shard.ReplayPackets(shard.ReplayConfig{Queues: 4, Seed: 1},
		shard.NewBasicFactory(sketchCfg, nil), tr.Packets)
	if err != nil {
		panic(err)
	}
	fmt.Println("workers:", st.Queues)
	fmt.Println("mass equals packets:", merged.SumValues() == uint64(len(tr.Packets)))
	// Output:
	// workers: 4
	// mass equals packets: true
}

// ExampleReplayQueues replays a capture the way the paper's OVS
// deployment ingests it: receive-side scaling splits the frames into
// queues, and each queue gets a pcap reader and a measurement worker
// with its own sketch, connected by a ring. The merged sketch accounts
// for every packet — the replay is lossless.
func ExampleReplayQueues() {
	tr := trace.CAIDALike(50_000, 1)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, 128); err != nil {
		panic(err)
	}
	queues, err := pcap.PartitionRSS(&capture, 2, 1)
	if err != nil {
		panic(err)
	}

	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 1)
	merged, st, err := shard.ReplayQueues(shard.ReplayConfig{Seed: 1},
		shard.NewBasicFactory(sketchCfg, nil), queues)
	if err != nil {
		panic(err)
	}
	fmt.Println("queues:", st.Queues)
	fmt.Println("packets:", st.Packets)
	fmt.Println("mass equals packets:", merged.SumValues() == st.Packets)
	// Output:
	// queues: 2
	// packets: 50000
	// mass equals packets: true
}

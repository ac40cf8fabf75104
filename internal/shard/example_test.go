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

// Example runs the full engine lifecycle: construct, ingest a trace,
// close, and decode the merged full-key table. The merged counter mass
// equals the packet count — dispatch, rings and decode-time merging
// are lossless.
func Example() {
	tr := trace.CAIDALike(100_000, 1)

	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 1)
	eng := shard.NewBasic(shard.Config{Workers: 4, Seed: 1}, sketchCfg)

	eng.Ingest(tr.Packets)
	eng.Close()

	merged, err := eng.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Println("workers:", eng.Workers())
	fmt.Println("mass equals packets:", merged.SumValues() == uint64(len(tr.Packets)))
	// Output:
	// workers: 4
	// mass equals packets: true
}

// ExampleEngine_Snapshot reads a consistent point-in-time view while
// the engine stays open for further ingest.
func ExampleEngine_Snapshot() {
	tr := trace.CAIDALike(50_000, 2)
	eng := shard.NewBasic(shard.Config{Workers: 2, Seed: 2},
		core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 2))

	eng.Ingest(tr.Packets[:25_000])
	if _, err := eng.Snapshot(); err != nil { // live read; ingest continues after
		panic(err)
	}
	eng.Ingest(tr.Packets[25_000:])
	eng.Close()

	final, err := eng.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Println("final mass:", final.SumValues())
	// Output:
	// final mass: 50000
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

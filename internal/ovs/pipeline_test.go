package ovs_test

// End-to-end checks of the datapath in the shape of the paper's OVS
// integration: one ring per dataplane thread, a measurement worker
// draining each into a private sketch, and the sketches merged at
// decode. Package shard builds that datapath, with a ring of key
// slots per queue, and feeds it decoded packets (this file) or pcap
// frames (frames_test.go), so these tests drive it through shard's
// public API.

import (
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

// discard is a measurement worker that keeps nothing, so a run through
// it exercises the rings and workers alone.
type discard struct{}

func (discard) InsertBatch([]flowkey.FiveTuple, []uint64) {}
func (discard) InsertBatchUnit([]flowkey.FiveTuple)       {}
func (discard) Merge(discard) error                       { return nil }

func sketchForMemory(bytes int, seed uint64) core.Config {
	return core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, bytes, seed)
}

// topFlow returns the largest flow of a trace and its true size.
func topFlow(tr *trace.Trace) (flowkey.FiveTuple, uint64) {
	var top flowkey.FiveTuple
	var size uint64
	for k, v := range tr.FullCounts() {
		if v > size {
			top, size = k, v
		}
	}
	return top, size
}

func sum(m map[flowkey.FiveTuple]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}

func TestPipelineMovesAllPackets(t *testing.T) {
	tr := trace.CAIDALike(50000, 1)
	for _, threads := range []int{1, 2, 4} {
		_, st, err := shard.ReplayPackets(shard.ReplayConfig{Queues: threads, Seed: 1},
			func(int) discard { return discard{} }, tr.Packets)
		if err != nil {
			t.Fatal(err)
		}
		if st.Queues != threads || st.Packets != uint64(len(tr.Packets)) {
			t.Fatalf("threads=%d: stats %+v, want all %d packets moved", threads, st, len(tr.Packets))
		}
	}
}

func TestPipelineSketchAccuracy(t *testing.T) {
	tr := trace.CAIDALike(200000, 2)
	merged, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: 4, Seed: 3},
		shard.NewBasicFactory(sketchForMemory(512*1024, 3), nil), tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	decoded := merged.Decode()
	// Sharded decode conserves the total stream weight.
	if got := sum(decoded); got != uint64(len(tr.Packets)) {
		t.Fatalf("decoded total %d, want %d", got, len(tr.Packets))
	}
	// The top flow must be found with a sane estimate.
	topKey, topVal := topFlow(tr)
	if got := decoded[topKey]; got < topVal/2 || got > topVal*2 {
		t.Fatalf("top flow estimate %d, true %d", got, topVal)
	}
}

func TestPipelineShardingDisjoint(t *testing.T) {
	// Each flow must land in exactly one queue, and re-running with the
	// same seed gives an identical decode (no cross-queue randomness).
	const queues = 3
	tr, capture := buildCapture(t, 30000, 4, 0)
	qs := partition(t, capture, queues, 9)
	owner := make(map[flowkey.FiveTuple]int)
	packets := 0
	for i, q := range qs {
		for _, key := range queueKeys(t, q) {
			if o, ok := owner[key]; ok && o != i {
				t.Fatalf("flow %v in queues %d and %d", key, o, i)
			}
			owner[key] = i
			packets++
		}
	}
	if packets != len(tr.Packets) {
		t.Fatalf("queues hold %d packets, want %d", packets, len(tr.Packets))
	}

	run := func() map[flowkey.FiveTuple]uint64 {
		merged, _, err := shard.ReplayQueues(shard.ReplayConfig{Seed: 9},
			shard.NewBasicFactory(sketchForMemory(256*1024, 9), nil), qs)
		if err != nil {
			t.Fatal(err)
		}
		return merged.Decode()
	}
	d1, d2 := run(), run()
	if len(d1) != len(d2) {
		t.Fatalf("non-deterministic decode: %d vs %d entries", len(d1), len(d2))
	}
	for k, v := range d1 {
		if d2[k] != v {
			t.Fatalf("non-deterministic estimate for %v", k)
		}
	}
}

func TestPipelineLosslessByDefault(t *testing.T) {
	tr := trace.CAIDALike(20000, 7)
	merged, st, err := shard.ReplayPackets(shard.ReplayConfig{Queues: 2, PoolSlots: 4},
		shard.NewBasicFactory(sketchForMemory(64*1024, 7), nil), tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != uint64(len(tr.Packets)) || merged.SumValues() != st.Packets {
		t.Fatalf("a 4-record bound lost packets: %+v, mass %d", st, merged.SumValues())
	}
}

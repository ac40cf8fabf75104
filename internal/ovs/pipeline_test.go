package ovs_test

// End-to-end checks of the datapath these rings carry, in the shape of
// the paper's OVS integration: one ring per dataplane thread, a
// measurement worker draining each into a private sketch, and the
// sketches merged at decode. Package shard builds that datapath on
// this ring twice — the Engine's dispatcher over decoded packets (this
// file) and per-queue pcap readers over pooled frames (frames_test.go)
// — so these tests drive it through shard's public API.

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
func (discard) Query(flowkey.FiveTuple) uint64            { return 0 }
func (discard) Decode() map[flowkey.FiveTuple]uint64      { return nil }
func (discard) SumValues() uint64                         { return 0 }
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
		eng := shard.New(shard.Config{Workers: threads, Seed: 1}, func(int) discard { return discard{} })
		eng.Ingest(tr.Packets)
		eng.Close()
		st := eng.Stats()
		if st.Dispatched != uint64(len(tr.Packets)) || st.Consumed != st.Dispatched || st.Dropped != 0 {
			t.Fatalf("threads=%d: stats %+v, want all %d packets moved", threads, st, len(tr.Packets))
		}
	}
}

func TestPipelineSketchAccuracy(t *testing.T) {
	tr := trace.CAIDALike(200000, 2)
	eng := shard.NewBasic(shard.Config{Workers: 4, Seed: 3}, sketchForMemory(512*1024, 3))
	eng.Ingest(tr.Packets)
	eng.Close()
	decoded, err := eng.Decode()
	if err != nil {
		t.Fatal(err)
	}
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

func TestPipelineDropOnFull(t *testing.T) {
	// A tiny ring with a sketching consumer WILL overflow when allowed
	// to drop; the consumed packet count plus drops must equal the trace.
	tr := trace.CAIDALike(50000, 6)
	eng := shard.NewBasic(shard.Config{Workers: 2, RingCapacity: 4, DropOnFull: true, Seed: 2},
		sketchForMemory(64*1024, 2))
	eng.Ingest(tr.Packets)
	eng.Close()
	st := eng.Stats()
	if st.Dispatched != uint64(len(tr.Packets)) || st.Consumed+st.Dropped != st.Dispatched {
		t.Fatalf("consumed %d + dropped %d != %d", st.Consumed, st.Dropped, len(tr.Packets))
	}
	dec, err := eng.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(dec); got != st.Consumed {
		t.Fatalf("sketch total %d != consumed %d", got, st.Consumed)
	}
}

func TestPipelineLosslessByDefault(t *testing.T) {
	tr := trace.CAIDALike(20000, 7)
	eng := shard.NewBasic(shard.Config{Workers: 2, RingCapacity: 4}, sketchForMemory(64*1024, 7))
	eng.Ingest(tr.Packets)
	eng.Close()
	if st := eng.Stats(); st.Dropped != 0 || st.Consumed != uint64(len(tr.Packets)) {
		t.Fatalf("lossless mode dropped: %+v", st)
	}
}

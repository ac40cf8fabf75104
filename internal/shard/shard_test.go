package shard

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

func testTrace(n int, seed uint64) *trace.Trace {
	return trace.CAIDALike(n, seed)
}

func sketchCfg(seed uint64) core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 512, Seed: seed}
}

// TestOneWorkerMatchesSequential pins the determinism claim: the
// 1-worker engine must produce bit-identical decode output to feeding
// the same packets through a single sequential sketch.
func TestOneWorkerMatchesSequential(t *testing.T) {
	tr := testTrace(60_000, 3)
	cfg := sketchCfg(7)

	seq := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := range tr.Packets {
		seq.Insert(tr.Packets[i].Key, 1)
	}

	eng := NewBasic(Config{Workers: 1, Seed: 3}, cfg)
	eng.Ingest(tr.Packets)
	eng.Close()
	got, err := eng.Decode()
	if err != nil {
		t.Fatal(err)
	}

	want := seq.Decode()
	if len(got) != len(want) {
		t.Fatalf("decode size %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("flow %v: sharded %d, sequential %d", k, got[k], v)
		}
	}
}

// TestOneWorkerMatchesSequentialBytes repeats the determinism check in
// byte-count mode (InsertBatch with per-packet weights).
func TestOneWorkerMatchesSequentialBytes(t *testing.T) {
	tr := testTrace(30_000, 5)
	cfg := sketchCfg(9)

	seq := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := range tr.Packets {
		seq.Insert(tr.Packets[i].Key, uint64(tr.Packets[i].Size))
	}

	eng := NewBasic(Config{Workers: 1, Seed: 5, Bytes: true}, cfg)
	eng.Ingest(tr.Packets)
	eng.Close()
	got, err := eng.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Decode()
	if len(got) != len(want) {
		t.Fatalf("decode size %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("flow %v: sharded %d, sequential %d", k, got[k], v)
		}
	}
}

// TestConservationAcrossWorkers: with lossless ingest the merged
// counter mass must equal the packet count for every worker count —
// no packet is lost or double-counted by dispatch, rings, or merge.
func TestConservationAcrossWorkers(t *testing.T) {
	tr := testTrace(50_000, 11)
	for _, workers := range []int{1, 2, 3, 4, 7} {
		eng := NewBasic(Config{Workers: workers, Seed: 11}, sketchCfg(13))
		eng.Ingest(tr.Packets)
		eng.Close()
		st := eng.Stats()
		if st.Dispatched != uint64(len(tr.Packets)) || st.Consumed != st.Dispatched || st.Dropped != 0 {
			t.Fatalf("workers=%d: stats %+v, want %d dispatched=consumed", workers, st, len(tr.Packets))
		}
		s, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.SumValues(); got != uint64(len(tr.Packets)) {
			t.Fatalf("workers=%d: merged mass %d, want %d", workers, got, len(tr.Packets))
		}
	}
}

// TestUnbiasedAcrossShards: sharding must not bias estimates. The mean
// estimate of a dominant flow across independently seeded trials must
// track its true size, with the stream spread over 4 shards.
func TestUnbiasedAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const (
		trials  = 60
		packets = 12_000
	)
	var sum, truth float64
	for trial := 0; trial < trials; trial++ {
		tr := testTrace(packets, uint64(trial)+50)
		exact := tr.FullCounts()
		// Track the largest flow of this trial's trace.
		var heavy flowkey.FiveTuple
		var heavyN uint64
		for k, v := range exact {
			if v > heavyN {
				heavy, heavyN = k, v
			}
		}
		// A small sketch forces evictions, so replacement randomness is
		// actually exercised.
		eng := NewBasic(Config{Workers: 4, Seed: uint64(trial)},
			core.Config{Arrays: 2, BucketsPerArray: 64, Seed: uint64(trial) * 31})
		eng.Ingest(tr.Packets)
		eng.Close()
		got, err := eng.Decode()
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(got[heavy])
		truth += float64(heavyN)
	}
	if rel := math.Abs(sum-truth) / truth; rel > 0.05 {
		t.Fatalf("mean heavy-flow estimate off by %.1f%% across %d trials (unbiasedness)",
			rel*100, trials)
	}
}

// TestSnapshotDuringIngest takes snapshots while the dispatcher is
// still feeding packets: each snapshot must be internally consistent
// (mass equals a whole number of consumed packets at some barrier
// point) and ingest must finish losslessly afterwards.
func TestSnapshotDuringIngest(t *testing.T) {
	tr := testTrace(80_000, 17)
	eng := NewBasic(Config{Workers: 3, Seed: 17}, sketchCfg(19))

	var snaps []uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			s, err := eng.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			snaps = append(snaps, s.SumValues())
		}
	}()
	for off := 0; off < len(tr.Packets); off += 1000 {
		end := off + 1000
		if end > len(tr.Packets) {
			end = len(tr.Packets)
		}
		eng.Ingest(tr.Packets[off:end])
	}
	wg.Wait()
	eng.Close()

	for i, m := range snaps {
		if m > uint64(len(tr.Packets)) {
			t.Fatalf("snapshot %d mass %d exceeds stream length", i, m)
		}
	}
	s, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SumValues(); got != uint64(len(tr.Packets)) {
		t.Fatalf("final mass %d, want %d", got, len(tr.Packets))
	}
}

// TestSnapshotSeesFlushedPackets: after Flush and a drain, a snapshot
// must account for everything ingested so far even though the engine
// stays open.
func TestSnapshotSeesFlushedPackets(t *testing.T) {
	tr := testTrace(10_000, 23)
	eng := NewBasic(Config{Workers: 2, Seed: 23}, sketchCfg(29))
	eng.Ingest(tr.Packets)
	eng.Flush()
	for eng.Stats().Consumed < uint64(len(tr.Packets)) {
		// Workers drain asynchronously; Consumed is monotone.
		runtime.Gosched()
	}
	s, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SumValues(); got != uint64(len(tr.Packets)) {
		t.Fatalf("post-flush snapshot mass %d, want %d", got, len(tr.Packets))
	}
	eng.Close()
}

// TestHardwareEngine runs the hardware-friendly variant end to end:
// each of the d arrays independently conserves the stream weight, so
// the merged mass is d times the packet count.
func TestHardwareEngine(t *testing.T) {
	tr := testTrace(30_000, 31)
	cfg := sketchCfg(37)
	eng := NewHardware(Config{Workers: 4, Seed: 31}, cfg)
	eng.Ingest(tr.Packets)
	eng.Close()
	s, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.SumValues(), uint64(cfg.Arrays*len(tr.Packets)); got != want {
		t.Fatalf("hardware merged mass %d, want %d", got, want)
	}
	dec, err := eng.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) == 0 {
		t.Fatal("empty decode")
	}
}

// TestDropOnFull: a tiny ring with DropOnFull must drop rather than
// block, and the books must still balance (consumed + dropped =
// dispatched; sketch mass = consumed).
func TestDropOnFull(t *testing.T) {
	tr := testTrace(40_000, 41)
	eng := NewBasic(Config{Workers: 2, Seed: 41, RingCapacity: 64, DropOnFull: true}, sketchCfg(43))
	eng.Ingest(tr.Packets)
	eng.Close()
	st := eng.Stats()
	if st.Consumed+st.Dropped != st.Dispatched {
		t.Fatalf("books do not balance: %+v", st)
	}
	s, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SumValues(); got != st.Consumed {
		t.Fatalf("sketch mass %d, want consumed %d", got, st.Consumed)
	}
}

// TestRSSSplitIsDeterministic: two engines with equal Seed and Workers
// must split the stream identically, yielding identical decodes.
func TestRSSSplitIsDeterministic(t *testing.T) {
	tr := testTrace(20_000, 47)
	run := func() map[flowkey.FiveTuple]uint64 {
		eng := NewBasic(Config{Workers: 4, Seed: 47}, sketchCfg(53))
		eng.Ingest(tr.Packets)
		eng.Close()
		dec, err := eng.Decode()
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("decode sizes differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("flow %v: %d vs %d between identical runs", k, v, b[k])
		}
	}
}

// TestIngestKeys covers the bare-key ingest path.
func TestIngestKeys(t *testing.T) {
	tr := testTrace(8_000, 59)
	keys := make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		keys[i] = tr.Packets[i].Key
	}
	eng := NewBasic(Config{Workers: 2, Seed: 59}, sketchCfg(61))
	eng.IngestKeys(keys)
	eng.Close()
	s, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SumValues(); got != uint64(len(keys)) {
		t.Fatalf("mass %d, want %d", got, len(keys))
	}
}

// TestCloseIdempotent: double Close must not hang or panic, and reads
// after Close keep working.
func TestCloseIdempotent(t *testing.T) {
	eng := NewBasic(Config{Workers: 2, Seed: 67}, sketchCfg(71))
	eng.IngestKeys([]flowkey.FiveTuple{{Proto: 6}})
	eng.Close()
	eng.Close()
	if _, err := eng.Query(flowkey.FiveTuple{Proto: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestIngestAfterClosePanics: a closed engine has no workers left to
// drain its rings, so dispatching into it must fail loudly instead of
// counting packets that are never measured or, once a ring fills,
// blocking forever. Each call runs in a goroutine under a deadline so
// a hang fails the test instead of the whole suite.
func TestIngestAfterClosePanics(t *testing.T) {
	tr := testTrace(20_100, 73)
	keys := []flowkey.FiveTuple{tr.Packets[0].Key}
	eng := NewBasic(Config{Workers: 1, Seed: 73}, sketchCfg(79))
	eng.Ingest(tr.Packets[:100])
	eng.Close()
	calls := []struct {
		name string
		call func()
	}{
		{"Ingest", func() { eng.Ingest(tr.Packets[100:]) }},
		{"IngestKeys", func() { eng.IngestKeys(keys) }},
		{"Flush", eng.Flush},
	}
	for _, c := range calls {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			c.call()
		}()
		select {
		case r := <-done:
			if r != "shard: Ingest after Close" {
				t.Fatalf("%s after Close: recovered %v, want the Ingest-after-Close panic", c.name, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s after Close did not return", c.name)
		}
	}
	if st := eng.Stats(); st.Dispatched != 100 || st.Consumed != 100 {
		t.Fatalf("stats after rejected ingest %+v, want 100 dispatched and consumed", st)
	}
}

// BenchmarkEngineIngest measures the sharded ingest hot path
// (dispatch + ring + batched insert) end to end.
func BenchmarkEngineIngest(b *testing.B) {
	tr := testTrace(1<<17, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			eng := NewBasic(Config{Workers: workers, Seed: 1},
				core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 1))
			b.SetBytes(int64(len(tr.Packets)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Ingest(tr.Packets)
			}
			eng.Close()
		})
	}
}

package shard

import (
	"math"
	"slices"
	"testing"

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

// replayPackets replays ps through ReplayPackets into basic sketches of
// sketchCfg, failing the test on error.
func replayPackets(t testing.TB, cfg ReplayConfig, sketchCfg core.Config, ps []trace.Packet) (*core.Basic[flowkey.FiveTuple], ReplayStats) {
	t.Helper()
	s, st, err := ReplayPackets(cfg, NewBasicFactory(sketchCfg, nil), ps)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// sameState fails the test unless got and want hold the same buckets
// and the same replacement RNG state.
func sameState(t testing.TB, what string, got, want *core.Basic[flowkey.FiveTuple]) {
	t.Helper()
	if !slices.Equal(got.Buckets(), want.Buckets()) {
		t.Fatalf("%s: buckets differ", what)
	}
	if got.RNGState() != want.RNGState() {
		t.Fatalf("%s: RNG state %#x, want %#x", what, got.RNGState(), want.RNGState())
	}
}

// TestOneWorkerMatchesSequential pins the determinism claim: a
// one-queue in-memory replay must leave its sketch, buckets and RNG
// state, exactly as feeding the same packets through one sequential
// sketch does.
func TestOneWorkerMatchesSequential(t *testing.T) {
	tr := testTrace(60_000, 3)
	cfg := sketchCfg(7)

	seq := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := range tr.Packets {
		seq.Insert(tr.Packets[i].Key, 1)
	}

	got, _ := replayPackets(t, ReplayConfig{Queues: 1, Seed: 3}, cfg, tr.Packets)
	sameState(t, "unit weights", got, seq)
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

	got, _ := replayPackets(t, ReplayConfig{Queues: 1, Seed: 5, Bytes: true}, cfg, tr.Packets)
	sameState(t, "byte weights", got, seq)
}

// TestConservationAcrossWorkers: with lossless ingest the merged
// counter mass must equal the packet count for every worker count —
// no packet is lost or double-counted by steering, rings, or merge.
func TestConservationAcrossWorkers(t *testing.T) {
	tr := testTrace(50_000, 11)
	for _, workers := range []int{1, 2, 3, 4, 7} {
		s, st := replayPackets(t, ReplayConfig{Queues: workers, Seed: 11}, sketchCfg(13), tr.Packets)
		if st.Queues != workers || st.Packets != uint64(len(tr.Packets)) {
			t.Fatalf("workers=%d: stats %+v, want %d packets inserted", workers, st, len(tr.Packets))
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
		s, _ := replayPackets(t, ReplayConfig{Queues: 4, Seed: uint64(trial)},
			core.Config{Arrays: 2, BucketsPerArray: 64, Seed: uint64(trial) * 31}, tr.Packets)
		sum += float64(s.Decode()[heavy])
		truth += float64(heavyN)
	}
	if rel := math.Abs(sum-truth) / truth; rel > 0.05 {
		t.Fatalf("mean heavy-flow estimate off by %.1f%% across %d trials (unbiasedness)",
			rel*100, trials)
	}
}

// TestHardwareEngine runs the hardware-friendly variant end to end:
// each of the d arrays independently conserves the stream weight, so
// the merged mass is d times the packet count.
func TestHardwareEngine(t *testing.T) {
	tr := testTrace(30_000, 31)
	cfg := sketchCfg(37)
	newSketch := func(i int) *core.Hardware[flowkey.FiveTuple] {
		s := core.NewHardware[flowkey.FiveTuple](cfg)
		if i > 0 {
			s.Reseed(cfg.Seed ^ rngSalt(i))
		}
		return s
	}
	s, _, err := ReplayPackets(ReplayConfig{Queues: 4, Seed: 31}, newSketch, tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.SumValues(), uint64(cfg.Arrays*len(tr.Packets)); got != want {
		t.Fatalf("hardware merged mass %d, want %d", got, want)
	}
	if len(s.Decode()) == 0 {
		t.Fatal("empty decode")
	}
}

// TestRSSSplitIsDeterministic: two replays with equal Seed and Queues
// must split the stream identically, yielding identical decodes.
func TestRSSSplitIsDeterministic(t *testing.T) {
	tr := testTrace(20_000, 47)
	run := func() map[flowkey.FiveTuple]uint64 {
		s, _ := replayPackets(t, ReplayConfig{Queues: 4, Seed: 47}, sketchCfg(53), tr.Packets)
		return s.Decode()
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

// BenchmarkReplayPackets measures the in-memory feed end to end:
// steering, rings, batched inserts and the final merge.
func BenchmarkReplayPackets(b *testing.B) {
	tr := testTrace(1<<17, 1)
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 1)
	for _, queues := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "q1", 2: "q2", 4: "q4"}[queues], func(b *testing.B) {
			b.SetBytes(int64(len(tr.Packets)))
			for i := 0; i < b.N; i++ {
				if _, _, err := ReplayPackets(ReplayConfig{Queues: queues, Seed: 1},
					NewBasicFactory(sketchCfg, nil), tr.Packets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package report

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/oracle"
)

var testCfg = core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 42}

// testBuckets is testCfg's d × l, the bound a receiver of testCfg
// decodes with.
var testBuckets = testCfg.Arrays * testCfg.BucketsPerArray

func key(a uint32, p uint16) flowkey.FiveTuple {
	var k flowkey.FiveTuple
	k.SrcIP[0] = byte(a >> 24)
	k.SrcIP[1] = byte(a >> 16)
	k.SrcIP[2] = byte(a >> 8)
	k.SrcIP[3] = byte(a)
	k.DstIP[0] = 10
	k.SrcPort = p
	k.DstPort = 443
	k.Proto = 6
	return k
}

// epochSketch builds one epoch's fat sketch: n packets from a key
// population shared across epochs (flows persist, counts differ), plus
// some per-epoch churn keys.
func epochSketch(t testing.TB, cfg core.Config, epoch int, n int, seed int64) *core.Basic[flowkey.FiveTuple] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 { // churn: keys unique to this epoch
			s.Insert(key(uint32(1_000_000+epoch*1000+rng.Intn(100)), 80), 1)
			continue
		}
		s.Insert(key(uint32(rng.Intn(300)), 80), uint64(1+rng.Intn(3)))
	}
	return s
}

func codec(t testing.TB, cfg core.Config, shrink int) Codec[flowkey.FiveTuple] {
	t.Helper()
	c, err := New[flowkey.FiveTuple](cfg, shrink)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// roundTrip encodes stage at shrink as epoch, decodes the payload and
// fails unless the decoded stage equals the stage (buckets, keys,
// counters, seeds and RNG state) and the header's shrink is shrink. It
// returns the payload.
func roundTrip(t testing.TB, epoch uint32, stage *core.Basic[flowkey.FiveTuple], shrink int) []byte {
	t.Helper()
	payload, err := Encode(epoch, stage, shrink)
	if err != nil {
		t.Fatal(err)
	}
	back, gotShrink, err := Decode(epoch, payload, stage.Arrays()*stage.BucketsPerArray(), flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatalf("decoding its own payload: %v", err)
	}
	if gotShrink != shrink {
		t.Fatalf("header shrink %d, encoded at %d", gotShrink, shrink)
	}
	if !back.Equal(stage) {
		t.Fatal("decoded stage is not the sealed stage")
	}
	return payload
}

// TestFullCodecIsBitIdenticalToFatSketch pins the shrink-1 codec,
// which replaced full snapshots: Seal is the identity and the decoded
// stage equals the fat sketch, RNG state included, so a collector of
// shrink-1 reports holds what a snapshot carried.
func TestFullCodecIsBitIdenticalToFatSketch(t *testing.T) {
	c := codec(t, testCfg, 1)
	fat := epochSketch(t, testCfg, 0, 20000, 1)
	stage, err := c.Seal(fat)
	if err != nil {
		t.Fatal(err)
	}
	if stage != fat {
		t.Fatal("shrink-1 Seal is not the identity")
	}
	payload, err := c.Encode(3, stage)
	if err != nil {
		t.Fatal(err)
	}
	back, shrink, err := Decode(3, payload, testBuckets, flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatal(err)
	}
	if shrink != 1 {
		t.Fatalf("header shrink %d, encoded at 1", shrink)
	}
	if !back.Equal(fat) {
		t.Fatal("shrink-1 decode is not bit-identical to the fat sketch")
	}
}

// TestCompressedRoundTripLossless is the codec's core property: the
// decoded stage equals the sealed stage — seeds
// and RNG state included, so the decoder needs no Config — at every
// shrink of an aligned geometry (Seal is the identity at shrink 1 and
// core.ExtractStage above it), with three arrays, after a Merge of two
// agents' stages, with the all-zero key holding a bucket, on an empty
// stage, and at shrink 1 on every oracle traffic regime.
func TestCompressedRoundTripLossless(t *testing.T) {
	aligned := AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](2, 64<<10, 7))
	for _, shrink := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("shrink=%d", shrink), func(t *testing.T) {
			c := codec(t, aligned, shrink)
			for epoch := uint32(0); epoch < 3; epoch++ {
				fat := epochSketch(t, aligned, int(epoch), 20000, 100+int64(epoch))
				stage, err := c.Seal(fat)
				if err != nil {
					t.Fatal(err)
				}
				if shrink == 1 && stage != fat {
					t.Fatal("shrink-1 Seal is not the identity")
				}
				if got := stage.BucketsPerArray(); got*shrink != aligned.BucketsPerArray {
					t.Fatalf("stage has %d buckets per array, want %d/%d", got, aligned.BucketsPerArray, shrink)
				}
				roundTrip(t, epoch, stage, shrink)
				if got, want := stage.SumValues(), fat.SumValues(); got != want {
					t.Fatalf("epoch %d: stage mass %d, epoch had %d", epoch, got, want)
				}
			}
		})
	}

	t.Run("d=3", func(t *testing.T) {
		cfg := core.Config{Arrays: 3, BucketsPerArray: 128, Seed: 0xFEED}
		stage, err := codec(t, cfg, 16).Seal(epochSketch(t, cfg, 0, 3000, 5))
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, 9, stage, 16)
	})

	t.Run("merged", func(t *testing.T) {
		// Two agents see the same 24 flows in different orders, so
		// their tie-breaks place some flow in array 0 at one agent and
		// in array 1 at the other, and the merge keeps it in both.
		agentStage := func(seed int64) *core.Basic[flowkey.FiveTuple] {
			rng := rand.New(rand.NewSource(seed))
			fat := core.NewBasic[flowkey.FiveTuple](testCfg)
			for _, f := range rng.Perm(24) {
				fat.Insert(key(uint32(f), 80), uint64(1+rng.Intn(5)))
			}
			stage, err := codec(t, testCfg, 2).Seal(fat)
			if err != nil {
				t.Fatal(err)
			}
			return stage
		}
		agg, peer := agentStage(1), agentStage(2)
		if err := agg.Merge(peer); err != nil {
			t.Fatal(err)
		}
		if keysInEveryArray(agg) == 0 {
			t.Fatal("no key sits in both arrays of the merged stage; the case tests nothing")
		}
		roundTrip(t, 0, agg, 2)
	})

	t.Run("zero-key", func(t *testing.T) {
		s := epochSketch(t, testCfg, 0, 2000, 3)
		s.Insert(flowkey.FiveTuple{}, 500)
		if s.Query(flowkey.FiveTuple{}) == 0 {
			t.Fatal("the all-zero key holds no bucket; the case tests nothing")
		}
		roundTrip(t, 0, s, 1)
	})

	t.Run("empty", func(t *testing.T) {
		for _, shrink := range []int{1, 8} {
			stage, err := codec(t, testCfg, shrink).Seal(core.NewBasic[flowkey.FiveTuple](testCfg))
			if err != nil {
				t.Fatal(err)
			}
			payload := roundTrip(t, 5, stage, shrink)
			if want := crptFixed + 4*testCfg.Arrays + crptTail + 1; len(payload) != want {
				t.Errorf("shrink %d: empty stage payload is %d bytes, want the %d-byte header", shrink, len(payload), want)
			}
		}
	})

	t.Run("regimes", func(t *testing.T) {
		c := codec(t, core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 21}, 1)
		for _, reg := range oracle.Regimes() {
			tr := reg.Generate(6000, 0xF00D)
			fat := core.NewBasic[flowkey.FiveTuple](core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 21})
			for i := range tr.Packets {
				fat.Insert(tr.Packets[i].Key, 1)
			}
			want := fat.Clone()
			stage, err := c.Seal(fat)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, 0, stage, 1)
			if !fat.Equal(want) {
				t.Errorf("%s: sealing or encoding changed the fat sketch", reg.Name)
			}
		}
	})
}

// keysInEveryArray counts the keys that hold a bucket in every array
// of s.
func keysInEveryArray(s *core.Basic[flowkey.FiveTuple]) int {
	seen := make(map[flowkey.FiveTuple]int)
	for _, b := range s.Buckets() {
		if b.Val != 0 {
			seen[b.Key]++
		}
	}
	n := 0
	for _, c := range seen {
		if c == s.Arrays() {
			n++
		}
	}
	return n
}

// TestDecodedStageMergesWithPeers: stages decoded from different
// agents must merge through core.Merge (same geometry and seeds) —
// the collector's aggregation path.
func TestDecodedStageMergesWithPeers(t *testing.T) {
	c := codec(t, testCfg, 8)
	var agg *core.Basic[flowkey.FiveTuple]
	var want uint64
	for agentID := 1; agentID <= 3; agentID++ {
		fat := epochSketch(t, testCfg, 0, 10000, 600+int64(agentID))
		want += fat.SumValues()
		stage, _ := c.Seal(fat)
		payload, err := c.Encode(0, stage)
		if err != nil {
			t.Fatal(err)
		}
		shard, _, err := Decode(0, payload, testBuckets, flowkey.FiveTupleFromBytes)
		if err != nil {
			t.Fatal(err)
		}
		if agg == nil {
			agg = shard
			continue
		}
		if err := agg.Merge(shard); err != nil {
			t.Fatalf("merging agent %d's stage: %v", agentID, err)
		}
	}
	if agg.SumValues() != want {
		t.Fatalf("aggregate mass %d, agents observed %d", agg.SumValues(), want)
	}
}

// TestCompressedRejectsCorruptPayloads damages a valid payload field by
// field; every variant must fail with ErrCorrupt, never decode.
func TestCompressedRejectsCorruptPayloads(t *testing.T) {
	stage, _ := codec(t, testCfg, 8).Seal(epochSketch(t, testCfg, 0, 10000, 800))
	valid, err := Encode(0, stage, 8)
	if err != nil {
		t.Fatal(err)
	}
	tail := crptFixed + 4*testCfg.Arrays // epoch, RNG state, mass
	massOff := tail + 12
	cases := map[string][]byte{
		"empty":             {},
		"truncated header":  valid[:20],
		"truncated body":    valid[:len(valid)-3],
		"trailing bytes":    append(append([]byte{}, valid...), 0),
		"bad magic":         append([]byte("CRPX"), valid[4:]...),
		"bad version":       patch(valid, 4, 9),
		"bad key size":      patch(valid, 5, 7),
		"zero arrays":       patch(valid, 6, 0, 0),
		"zero buckets":      patch(valid, 8, 0, 0, 0, 0),
		"huge stage":        patch(valid, 8, 0, 0, 0, 0x7f),
		"stage above bound": patch(valid, 8, 65),
		"shrink overflow":   patch(valid, 12, 40),
		"epoch mismatch":    valid, // decoded with the wrong framing epoch below
		"corrupt mass":      flip(valid, massOff),
		"corrupt counter":   flip(valid, len(valid)-1),
		"key count":         patch(valid, tail+crptTail, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, payload := range cases {
		epoch := uint32(0)
		if name == "epoch mismatch" {
			epoch = 5
		}
		if _, _, err := Decode(epoch, payload, testBuckets, flowkey.FiveTupleFromBytes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xFF
	return out
}

// patch returns a copy of b with the bytes from offset off replaced by
// v.
func patch(b []byte, off int, v ...byte) []byte {
	out := append([]byte{}, b...)
	copy(out[off:], v)
	return out
}

// TestCompressedRejectsVersion1 pins the version rule: a decoder
// accepts version 3 only. A CRPT v1 stage was placed by d Bob hashes
// and v2 by the wide hash, both in the delta-coded positional layout,
// so each must be refused rather than decoded as v3.
func TestCompressedRejectsVersion1(t *testing.T) {
	stage, _ := codec(t, testCfg, 8).Seal(epochSketch(t, testCfg, 0, 10000, 900))
	valid, err := Encode(0, stage, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 2} {
		_, _, err = Decode(0, patch(valid, 4, v), testBuckets, flowkey.FiveTupleFromBytes)
		want := fmt.Sprintf("unsupported version %d", v)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d payload: got %v, want ErrCorrupt with %q", v, err, want)
		}
	}
}

func TestCompressedConstructorValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		shrink int
	}{
		{"shrink zero", testCfg, 0},
		{"shrink not a power of two", testCfg, 3},
		{"shrink exceeds geometry", testCfg, 128},
		{"shrink does not divide", core.Config{Arrays: 2, BucketsPerArray: 100, Seed: 1}, 8},
		{"bad geometry", core.Config{Arrays: 0, BucketsPerArray: 64}, 4},
		{"too many arrays", core.Config{Arrays: 1 << 16, BucketsPerArray: 64}, 4},
	} {
		if _, err := New[flowkey.FiveTuple](tc.cfg, tc.shrink); err == nil {
			t.Errorf("%s: constructor accepted invalid input", tc.name)
		}
	}
}

// TestCompressionRatioFloor gates the headline claim: on dense
// realistic sketches with persistent flows, shrink-8 reports are at
// least 5× smaller than full snapshots, epoch after epoch, with no
// state carried between reports. `make bench-report` runs this
// alongside the decode-throughput benchmark gate.
func TestCompressionRatioFloor(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 0xC0C0}
	c := codec(t, cfg, 8)
	var raw, wire int
	for epoch := uint32(0); epoch < 5; epoch++ {
		fat := epochSketch(t, cfg, int(epoch), 50000, 900+int64(epoch))
		stage, err := c.Seal(fat)
		if err != nil {
			t.Fatal(err)
		}
		payload := roundTrip(t, epoch, stage, 8)
		raw += fat.MarshaledSize()
		wire += len(payload)
	}
	t.Logf("compression ratio %.2f× (%d raw, %d wire bytes)", float64(raw)/float64(wire), raw, wire)
	if raw < 5*wire {
		t.Fatalf("compression ratio %.2f× below the 5× floor (%d raw, %d wire bytes)",
			float64(raw)/float64(wire), raw, wire)
	}
}

func TestAlignConfigMakesMemoryGeometriesShrinkable(t *testing.T) {
	cases := []struct {
		in, want int
	}{
		{12190, 12160}, // cocoagent's default -mem 500 geometry
		{12160, 12160}, // already aligned: unchanged
		{64, 64},
		{63, 63}, // below one alignment unit: left alone
		{1, 1},
	}
	for _, c := range cases {
		cfg := core.Config{Arrays: 2, BucketsPerArray: c.in, Seed: 1}
		got := AlignConfig(cfg)
		if got.BucketsPerArray != c.want {
			t.Errorf("AlignConfig(%d buckets) = %d, want %d", c.in, got.BucketsPerArray, c.want)
		}
		if got.Arrays != cfg.Arrays || got.Seed != cfg.Seed {
			t.Errorf("AlignConfig(%d buckets) changed arrays/seed: %+v", c.in, got)
		}
	}

	// Every shrink the flag can reasonably ask for divides an aligned
	// memory-derived geometry, so codec construction succeeds.
	aligned := AlignConfig(core.Config{Arrays: 2, BucketsPerArray: 12190, Seed: 1})
	for shrink := 1; shrink <= GeometryAlign; shrink *= 2 {
		if _, err := New[flowkey.FiveTuple](aligned, shrink); err != nil {
			t.Errorf("New(aligned, shrink=%d): %v", shrink, err)
		}
	}
}

// TestEncodeRejectsKeyInEmptyBucket: a stage whose empty bucket holds a
// key could not be rebuilt bit for bit (the payload names occupied
// buckets only), so Encode refuses it rather than ship a stage the
// collector would rebuild differently.
func TestEncodeRejectsKeyInEmptyBucket(t *testing.T) {
	s := core.NewBasic[flowkey.FiveTuple](testCfg)
	s.Buckets()[3].Key = key(7, 80)
	if _, err := Encode(0, s, 1); err == nil {
		t.Fatal("Encode accepted an empty bucket holding a key")
	}
}

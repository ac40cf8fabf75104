package report

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

var testCfg = core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 42}

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
func epochSketch(t *testing.T, cfg core.Config, epoch int, n int, seed int64) *core.Basic[flowkey.FiveTuple] {
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

func marshal(t *testing.T, s *core.Basic[flowkey.FiveTuple]) []byte {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func compressed(t *testing.T, shrink int) Codec[flowkey.FiveTuple] {
	t.Helper()
	c, err := Compressed[flowkey.FiveTuple](testCfg, shrink, flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFullCodecIsBitIdenticalToMarshalBinary(t *testing.T) {
	codec := Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes)
	fat := epochSketch(t, testCfg, 0, 20000, 1)
	stage, err := codec.Seal(fat)
	if err != nil {
		t.Fatal(err)
	}
	if stage != fat {
		t.Fatal("full Seal is not the identity")
	}
	payload, err := codec.NewEncoder().Encode(3, stage)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, marshal(t, fat)) {
		t.Fatal("full payload differs from MarshalBinary — the pre-codec wire format changed")
	}
	back, err := codec.NewDecoder().Decode(1, 3, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, back), payload) {
		t.Fatal("full decode round trip is not bit-identical")
	}
}

func TestFullDecoderRejectsCompressedPayload(t *testing.T) {
	codec := compressed(t, 8)
	fat := epochSketch(t, testCfg, 0, 5000, 2)
	stage, _ := codec.Seal(fat)
	payload, err := codec.NewEncoder().Encode(0, stage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes).NewDecoder().Decode(1, 0, payload); err == nil {
		t.Fatal("full decoder accepted a compressed payload")
	}
}

// TestCompressedRoundTripLossless is the core property: for every
// shrink factor, encode→decode of a sealed stage reproduces it
// bit-identically (buckets, keys, counters, RNG state), both for
// self-contained and delta payloads.
func TestCompressedRoundTripLossless(t *testing.T) {
	for _, shrink := range []int{1, 2, 8, 64} {
		codec := compressed(t, shrink)
		enc := codec.NewEncoder()
		dec := codec.NewDecoder()
		for epoch := uint32(0); epoch < 4; epoch++ {
			fat := epochSketch(t, testCfg, int(epoch), 20000, 100+int64(epoch))
			stage, err := codec.Seal(fat)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := enc.Encode(epoch, stage)
			if err != nil {
				t.Fatal(err)
			}
			back, err := dec.Decode(7, epoch, payload)
			if err != nil {
				t.Fatalf("shrink %d epoch %d: %v", shrink, epoch, err)
			}
			if !bytes.Equal(marshal(t, stage), marshal(t, back)) {
				t.Fatalf("shrink %d epoch %d: decode is not bit-identical", shrink, epoch)
			}
			if got, want := back.SumValues(), fat.SumValues(); got != want {
				t.Fatalf("shrink %d epoch %d: mass %d, epoch had %d", shrink, epoch, got, want)
			}
			enc.Ack(epoch, stage)
		}
	}
}

// stableEpochSketch builds one epoch's fat sketch whose traffic is 8
// stable heavy flows, present in every epoch and fewer than the 2 × 8
// buckets of a shrink-8 stage of testCfg, plus 5% light churn unique
// to the epoch. Every epoch opens with one packet of each
// stable flow in the same order, as long-lived flows would: the
// sketch seed is the same each epoch, so their first placements (a
// random tie-break between empty buckets) repeat, and the flows keep
// their buckets from epoch to epoch.
func stableEpochSketch(cfg core.Config, epoch int) *core.Basic[flowkey.FiveTuple] {
	const heavy = 8
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*1000 + int64(epoch)))
	s := core.NewBasic[flowkey.FiveTuple](cfg)
	for f := 0; f < heavy; f++ {
		s.Insert(key(uint32(f), 80), 1)
	}
	for i := 0; i < 5000; i++ {
		if i%20 == 0 {
			s.Insert(key(uint32(1_000_000+epoch*1000+rng.Intn(500)), 80), 1)
			continue
		}
		s.Insert(key(uint32(rng.Intn(heavy)), 80), 1)
	}
	return s
}

// TestCompressedDeltaShrinksPayload: when the stage's flows are stable
// across epochs, a delta payload must be smaller than the
// self-contained encoding of the same stage. The stable flows fit in
// the stage, so they keep their buckets from one epoch to the next;
// the property must hold under every sketch seed of the sweep, not
// under one seed that happens to pass.
func TestCompressedDeltaShrinksPayload(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := testCfg
		cfg.Seed = seed
		codec, err := Compressed[flowkey.FiveTuple](cfg, 8, flowkey.FiveTupleFromBytes)
		if err != nil {
			t.Fatal(err)
		}
		enc := codec.NewEncoder()
		dec := codec.NewDecoder()

		s0, _ := codec.Seal(stableEpochSketch(cfg, 0))
		p0, err := enc.Encode(0, s0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(1, 0, p0); err != nil {
			t.Fatal(err)
		}
		enc.Ack(0, s0)

		s1, _ := codec.Seal(stableEpochSketch(cfg, 1))
		delta, err := enc.Encode(1, s1)
		if err != nil {
			t.Fatal(err)
		}
		if delta[5]&0x01 == 0 {
			t.Fatalf("seed %d: second payload is not delta-encoded", seed)
		}
		selfContained, err := codec.NewEncoder().Encode(1, s1)
		if err != nil {
			t.Fatal(err)
		}
		if len(delta) >= len(selfContained) {
			t.Errorf("seed %d: delta payload (%d bytes) is not smaller than self-contained (%d bytes)", seed, len(delta), len(selfContained))
		}
		back, err := dec.Decode(1, 1, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(t, s1), marshal(t, back)) {
			t.Fatalf("seed %d: delta decode is not bit-identical", seed)
		}
	}
}

// TestResetRecoversFromLostAck models the failure protocol: a delta
// was delivered but its acknowledgement lost. The encoder resets (it
// cannot know the collector's state); the next payload is
// self-contained and must decode cleanly on a decoder whose base
// already advanced.
func TestResetRecoversFromLostAck(t *testing.T) {
	codec := compressed(t, 4)
	enc := codec.NewEncoder()
	dec := codec.NewDecoder()

	s0, _ := codec.Seal(epochSketch(t, testCfg, 0, 10000, 300))
	p0, _ := enc.Encode(0, s0)
	if _, err := dec.Decode(9, 0, p0); err != nil {
		t.Fatal(err)
	}
	enc.Ack(0, s0)

	s1, _ := codec.Seal(epochSketch(t, testCfg, 1, 10000, 301))
	p1, _ := enc.Encode(1, s1)
	if _, err := dec.Decode(9, 1, p1); err != nil { // delivered...
		t.Fatal(err)
	}
	enc.Reset() // ...but the ack was lost: encoder must go self-contained

	p1retry, err := enc.Encode(1, s1)
	if err != nil {
		t.Fatal(err)
	}
	if p1retry[5]&0x01 != 0 {
		t.Fatal("post-Reset payload still delta-encoded")
	}
	back, err := dec.Decode(9, 1, p1retry)
	if err != nil {
		t.Fatalf("self-contained retry rejected: %v", err)
	}
	if !bytes.Equal(marshal(t, s1), marshal(t, back)) {
		t.Fatal("retry decode is not bit-identical")
	}

	// And the pipeline continues with deltas from the re-agreed base.
	enc.Ack(1, s1)
	s2, _ := codec.Seal(epochSketch(t, testCfg, 2, 10000, 302))
	p2, _ := enc.Encode(2, s2)
	if p2[5]&0x01 == 0 {
		t.Fatal("expected a delta after recovery")
	}
	if back, err = dec.Decode(9, 2, p2); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(marshal(t, s2), marshal(t, back)) {
		t.Fatal("post-recovery delta decode is not bit-identical")
	}
}

func TestDeltaAgainstUnknownBaseIsBaseMismatch(t *testing.T) {
	codec := compressed(t, 4)
	enc := codec.NewEncoder()
	dec := codec.NewDecoder()

	s0, _ := codec.Seal(epochSketch(t, testCfg, 0, 10000, 400))
	if _, err := enc.Encode(0, s0); err != nil {
		t.Fatal(err)
	}
	enc.Ack(0, s0) // encoder believes epoch 0 was delivered; decoder never saw it

	s1, _ := codec.Seal(epochSketch(t, testCfg, 1, 10000, 401))
	delta, _ := enc.Encode(1, s1)
	if _, err := dec.Decode(3, 1, delta); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("got %v, want ErrBaseMismatch", err)
	}

	// Per-agent isolation: a matching base for agent 3 must not serve
	// agent 4.
	p0, _ := codec.NewEncoder().Encode(0, s0)
	if _, err := dec.Decode(3, 0, p0); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(3, 1, delta); err != nil {
		t.Fatalf("delta rejected after base caught up: %v", err)
	}
	if _, err := dec.Decode(4, 1, delta); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("agent 4 got %v, want ErrBaseMismatch", err)
	}
}

// TestCompressedDecoderAcceptsFullSnapshots covers the mixed-fleet
// cell of the compatibility matrix.
func TestCompressedDecoderAcceptsFullSnapshots(t *testing.T) {
	dec := compressed(t, 8).NewDecoder()
	fat := epochSketch(t, testCfg, 0, 10000, 500)
	back, err := dec.Decode(1, 0, marshal(t, fat))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, fat), marshal(t, back)) {
		t.Fatal("snapshot passthrough is not bit-identical")
	}
}

// TestDecodedStageMergesWithPeers: stages decoded from different
// agents must merge through core.Merge (same geometry and seeds) —
// the collector's aggregation path.
func TestDecodedStageMergesWithPeers(t *testing.T) {
	codec := compressed(t, 8)
	dec := codec.NewDecoder()
	var agg *core.Basic[flowkey.FiveTuple]
	var want uint64
	for agentID := uint16(1); agentID <= 3; agentID++ {
		fat := epochSketch(t, testCfg, 0, 10000, 600+int64(agentID))
		want += fat.SumValues()
		stage, _ := codec.Seal(fat)
		payload, err := codec.NewEncoder().Encode(0, stage)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := dec.Decode(agentID, 0, payload)
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

// TestDecoderBaseSurvivesCallerMutation: the collector mutates the
// first decoded shard (it becomes the epoch aggregate). The decoder's
// retained base must be a private copy, or the next delta breaks.
func TestDecoderBaseSurvivesCallerMutation(t *testing.T) {
	codec := compressed(t, 4)
	enc := codec.NewEncoder()
	dec := codec.NewDecoder()

	s0, _ := codec.Seal(epochSketch(t, testCfg, 0, 10000, 700))
	p0, _ := enc.Encode(0, s0)
	shard, err := dec.Decode(1, 0, p0)
	if err != nil {
		t.Fatal(err)
	}
	enc.Ack(0, s0)

	// The collector merges a peer's stage into the returned shard.
	peer, _ := codec.Seal(epochSketch(t, testCfg, 0, 10000, 701))
	if err := shard.Merge(peer); err != nil {
		t.Fatal(err)
	}

	s1, _ := codec.Seal(epochSketch(t, testCfg, 1, 10000, 702))
	p1, _ := enc.Encode(1, s1)
	back, err := dec.Decode(1, 1, p1)
	if err != nil {
		t.Fatalf("delta after caller mutation: %v", err)
	}
	if !bytes.Equal(marshal(t, s1), marshal(t, back)) {
		t.Fatal("decode diverged after caller mutated the previous shard")
	}
}

func TestCompressedRejectsCorruptPayloads(t *testing.T) {
	codec := compressed(t, 8)
	stage, _ := codec.Seal(epochSketch(t, testCfg, 0, 10000, 800))
	valid, err := codec.NewEncoder().Encode(0, stage)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":             {},
		"truncated header":  valid[:20],
		"truncated body":    valid[:len(valid)-3],
		"trailing bytes":    append(append([]byte{}, valid...), 0),
		"bad magic":         append([]byte("CRPX"), valid[4:]...),
		"bad version":       append([]byte("CRPT\x09"), valid[5:]...),
		"unknown flags":     patch(valid, 5, 0x80),
		"bad shrink":        patch(valid, 5, 0x00, 0x1f),
		"bad key size":      patch(valid, 5, 0x00, 0x03, 0x07),
		"epoch mismatch":    valid, // decoded with the wrong framing epoch below
		"corrupt body byte": flip(valid, len(valid)-1),
		"corrupt sum":       flip(valid, 40),
	}
	for name, payload := range cases {
		dec := codec.NewDecoder()
		epoch := uint32(0)
		if name == "epoch mismatch" {
			epoch = 5
		}
		if _, err := dec.Decode(1, epoch, payload); !errors.Is(err, ErrCorrupt) {
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

// TestCompressedRejectsVersion1 pins the version bump that came with
// the wide hash: a CRPT v1 stage was placed by d Bob hashes, and the
// payload names the seeds but not the hash function, so the decoder
// must refuse it instead of decoding it into the wrong buckets.
func TestCompressedRejectsVersion1(t *testing.T) {
	codec := compressed(t, 8)
	stage, _ := codec.Seal(epochSketch(t, testCfg, 0, 10000, 900))
	valid, err := codec.NewEncoder().Encode(0, stage)
	if err != nil {
		t.Fatal(err)
	}
	_, err = codec.NewDecoder().Decode(1, 0, patch(valid, 4, 1))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 payload: got %v, want ErrCorrupt with \"unsupported version 1\"", err)
	}
}

func TestCompressedConstructorValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		shrink int
		dec    core.KeyDecoder[flowkey.FiveTuple]
	}{
		{"shrink zero", testCfg, 0, flowkey.FiveTupleFromBytes},
		{"shrink not a power of two", testCfg, 3, flowkey.FiveTupleFromBytes},
		{"shrink exceeds geometry", testCfg, 128, flowkey.FiveTupleFromBytes},
		{"nil decoder", testCfg, 4, nil},
		{"bad geometry", core.Config{Arrays: 0, BucketsPerArray: 64}, 4, flowkey.FiveTupleFromBytes},
	} {
		if _, err := Compressed[flowkey.FiveTuple](tc.cfg, tc.shrink, tc.dec); err == nil {
			t.Errorf("%s: constructor accepted invalid input", tc.name)
		}
	}
}

// TestCompressionRatioFloor gates the headline claim: on dense
// realistic sketches with persistent flows, shrink-8 compressed
// reports are at least 5× smaller than full snapshots, epoch after
// epoch. `make bench-report` runs this alongside the decode-throughput
// benchmark gate.
func TestCompressionRatioFloor(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 0xC0C0}
	codec, err := Compressed[flowkey.FiveTuple](cfg, 8, flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatal(err)
	}
	enc := codec.NewEncoder()
	dec := codec.NewDecoder()
	var raw, wire int
	for epoch := uint32(0); epoch < 5; epoch++ {
		fat := epochSketch(t, cfg, int(epoch), 50000, 900+int64(epoch))
		stage, err := codec.Seal(fat)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := enc.Encode(epoch, stage)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(1, epoch, payload); err != nil {
			t.Fatal(err)
		}
		enc.Ack(epoch, stage)
		raw += fat.MarshaledSize()
		wire += len(payload)
	}
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
	// memory-derived geometry, so Compressed construction succeeds.
	aligned := AlignConfig(core.Config{Arrays: 2, BucketsPerArray: 12190, Seed: 1})
	for shrink := 1; shrink <= GeometryAlign; shrink *= 2 {
		if _, err := Compressed[flowkey.FiveTuple](aligned, shrink, flowkey.FiveTupleFromBytes); err != nil {
			t.Errorf("Compressed(aligned, shrink=%d): %v", shrink, err)
		}
	}
}

package core

import (
	"math"
	"strings"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/xrand"
)

func TestMergeConservesWeight(t *testing.T) {
	cfg := Config{Arrays: 2, BucketsPerArray: 32, Seed: 5}
	a := NewBasic[flowkey.FiveTuple](cfg)
	b := NewBasic[flowkey.FiveTuple](cfg)
	rng := xrand.New(9)
	var total uint64
	for i := 0; i < 20000; i++ {
		w := rng.Uint64n(9) + 1
		k := tuple(uint32(rng.Uint64n(300)), 80)
		if i%2 == 0 {
			a.Insert(k, w)
		} else {
			b.Insert(k, w)
		}
		total += w
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.SumValues(); got != total {
		t.Fatalf("merged sum = %d, want %d", got, total)
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 32, Seed: 5})
	b := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 64, Seed: 5})
	if err := a.Merge(b); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	c := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 32, Seed: 6})
	if err := a.Merge(c); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestMergeUnbiased(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// Split one stream across two shards, merge, and check the mean
	// estimate of the dominant flow across trials.
	const trials = 200
	heavy := tuple(1, 1)
	var sum float64
	for trial := 0; trial < trials; trial++ {
		cfg := Config{Arrays: 2, BucketsPerArray: 8, Seed: uint64(trial)}
		a := NewBasic[flowkey.FiveTuple](cfg)
		b := NewBasic[flowkey.FiveTuple](cfg)
		rng := xrand.New(uint64(trial) * 3)
		for i := 0; i < 8000; i++ {
			var k flowkey.FiveTuple
			if rng.Uint64n(4) == 0 {
				k = heavy
			} else {
				k = tuple(uint32(rng.Uint64n(40))+10, 2)
			}
			if rng.Uint64n(2) == 0 {
				a.Insert(k, 1)
			} else {
				b.Insert(k, 1)
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		sum += float64(a.Decode()[heavy])
	}
	mean := sum / trials
	if math.Abs(mean-2000) > 200 {
		t.Fatalf("merged mean estimate %.0f, want about 2000", mean)
	}
}

func TestCompressConservesWeight(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 64, Seed: 7})
	rng := xrand.New(11)
	var total uint64
	for i := 0; i < 30000; i++ {
		w := rng.Uint64n(5) + 1
		s.Insert(tuple(uint32(rng.Uint64n(1000)), 3), w)
		total += w
	}
	if err := s.Compress(4); err != nil {
		t.Fatal(err)
	}
	if s.BucketsPerArray() != 16 {
		t.Fatalf("l after compress = %d, want 16", s.BucketsPerArray())
	}
	if got := s.SumValues(); got != total {
		t.Fatalf("compressed sum = %d, want %d", got, total)
	}
	// The sketch must still accept inserts and keep conserving.
	s.Insert(tuple(1, 1), 5)
	if got := s.SumValues(); got != total+5 {
		t.Fatalf("post-compress insert broke conservation")
	}
}

func TestCompressKeepsAddressing(t *testing.T) {
	// A flow's recorded bucket must remain addressable after
	// compression: query the dominant flow before and after.
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 128, Seed: 13})
	heavy := tuple(42, 42)
	for i := 0; i < 10000; i++ {
		s.Insert(heavy, 1)
	}
	rng := xrand.New(17)
	for i := 0; i < 2000; i++ {
		s.Insert(tuple(uint32(rng.Uint64n(500))+100, 9), 1)
	}
	before := s.Query(heavy)
	if before == 0 {
		t.Fatal("heavy flow lost before compression")
	}
	if err := s.Compress(2); err != nil {
		t.Fatal(err)
	}
	after := s.Query(heavy)
	if after < before {
		t.Fatalf("heavy flow estimate shrank after compression: %d -> %d", before, after)
	}
}

func TestCompressBadFactor(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 1, BucketsPerArray: 8, Seed: 1})
	if err := s.Compress(3); err == nil {
		t.Fatal("non-power-of-two factor accepted")
	}
	odd := NewBasic[flowkey.FiveTuple](Config{Arrays: 1, BucketsPerArray: 7, Seed: 1})
	if err := odd.Compress(2); err == nil {
		t.Fatal("odd bucket count halved")
	}
}

func TestSerializeRoundTripBasic(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 16, Seed: 3})
	pkts := stream(50, 20000, 4)
	for _, p := range pkts {
		s.Insert(p, 1)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBasic(blob, flowkey.FiveTupleFromBytes)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := s.Decode(), back.Decode()
	if len(d1) != len(d2) {
		t.Fatalf("decode sizes differ: %d vs %d", len(d1), len(d2))
	}
	for k, v := range d1 {
		if d2[k] != v {
			t.Fatalf("restored decode differs at %v", k)
		}
	}
	// Continued insertion is deterministic across the round trip.
	more := stream(50, 5000, 5)
	for _, p := range more {
		s.Insert(p, 1)
		back.Insert(p, 1)
	}
	if s.SumValues() != back.SumValues() {
		t.Fatal("post-restore insertion diverged in total")
	}
	d1, d2 = s.Decode(), back.Decode()
	for k, v := range d1 {
		if d2[k] != v {
			t.Fatalf("post-restore decode differs at %v", k)
		}
	}
}

func TestSerializeRoundTripHardware(t *testing.T) {
	s := NewHardware[flowkey.IPv4](Config{Arrays: 3, BucketsPerArray: 8, Seed: 9})
	rng := xrand.New(1)
	for i := 0; i < 5000; i++ {
		s.Insert(flowkey.IPv4FromUint32(uint32(rng.Uint64n(100))), 1)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalHardware(blob, flowkey.IPv4FromBytes)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range s.Decode() {
		if back.Query(k) != v {
			t.Fatalf("restored hardware sketch differs at %v", k)
		}
	}
}

// TestSerializeRejectsVersion1 pins the version bump that came with the
// wide hash: a version-1 sketch was placed by d Bob hashes, and the
// stream names the seeds but not the hash function, so decoding must
// refuse it instead of merging it into the wrong buckets.
func TestSerializeRejectsVersion1(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 4, Seed: 1})
	s.Insert(tuple(1, 2), 3)
	blob, _ := s.MarshalBinary()
	blob[4] = 1
	_, err := UnmarshalBasic(blob, flowkey.FiveTupleFromBytes)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 sketch: got %v, want \"unsupported version 1\"", err)
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 4, Seed: 1})
	blob, _ := s.MarshalBinary()

	cases := map[string][]byte{
		"empty":         {},
		"short":         blob[:10],
		"badmagic":      append([]byte("XXXX"), blob[4:]...),
		"badversion":    append(append([]byte{}, blob[:4]...), append([]byte{99}, blob[5:]...)...),
		"wrongvariant":  func() []byte { b := append([]byte{}, blob...); b[5] = variantHardware; return b }(),
		"truncatedtail": blob[:len(blob)-1],
	}
	for name, data := range cases {
		if _, err := UnmarshalBasic(data, flowkey.FiveTupleFromBytes); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Wrong key type (different key size).
	if _, err := UnmarshalBasic(blob, flowkey.IPv4FromBytes); err == nil {
		t.Error("wrong key size accepted")
	}
}

package core

import (
	"math"
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

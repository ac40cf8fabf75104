package core

import (
	"math/rand"
	"slices"
	"testing"

	"cocosketch/internal/flowkey"
)

// stageStream inserts n pseudo-random packets drawn from a skewed key
// population, so sketches carry realistic occupancy.
func stageStream(s *Basic[flowkey.FiveTuple], n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.Insert(tuple(uint32(rng.Intn(200)), uint16(rng.Intn(50))), uint64(1+rng.Intn(4)))
	}
}

func TestCloneIsDeepAndBitIdentical(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 32, Seed: 7})
	stageStream(s, 5000, 1)

	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone is not bit-identical to the original")
	}
	if c.RNGState() != s.RNGState() {
		t.Fatal("clone did not carry the RNG state")
	}

	// Mutating either side must not leak into the other.
	before := c.Clone()
	stageStream(s, 1000, 2)
	if !before.Equal(c) {
		t.Fatal("mutating the original changed the clone")
	}
	stageStream(c, 1000, 3)
	afterOriginal := s.Clone()
	stageStream(c, 1000, 4)
	if !afterOriginal.Equal(s) {
		t.Fatal("mutating the clone changed the original")
	}
}

// TestEqualCatchesOnePlantedDifference is Equal's negative control:
// a clone that differs from the original in one counter, one key, one
// hash seed or the RNG state alone must compare unequal, and an
// untouched clone equal.
func TestEqualCatchesOnePlantedDifference(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 32, Seed: 7})
	stageStream(s, 5000, 1)
	occupied := slices.IndexFunc(s.buckets, func(b Bucket[flowkey.FiveTuple]) bool { return b.Val != 0 })
	if occupied < 0 {
		t.Fatal("no occupied bucket")
	}
	for _, tc := range []struct {
		name  string
		plant func(c *Basic[flowkey.FiveTuple])
		equal bool
	}{
		{"untouched", func(*Basic[flowkey.FiveTuple]) {}, true},
		{"counter", func(c *Basic[flowkey.FiveTuple]) { c.buckets[occupied].Val++ }, false},
		{"key", func(c *Basic[flowkey.FiveTuple]) { c.buckets[occupied].Key.SrcPort ^= 1 }, false},
		{"seed", func(c *Basic[flowkey.FiveTuple]) { c.seeds[1] ^= 1 }, false},
		{"rng", func(c *Basic[flowkey.FiveTuple]) { c.SetRNGState(c.RNGState() + 1) }, false},
	} {
		c := s.Clone()
		tc.plant(c)
		if got := s.Equal(c); got != tc.equal || c.Equal(s) != got {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.equal)
		}
	}
}

func TestExtractStageGeometryAndConservation(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 64, Seed: 11})
	stageStream(s, 20000, 5)
	fatBefore := s.Clone()

	for _, factor := range []int{1, 2, 8} {
		stage, err := s.ExtractStage(factor)
		if err != nil {
			t.Fatalf("ExtractStage(%d): %v", factor, err)
		}
		if stage.Arrays() != 2 || stage.BucketsPerArray() != 64/factor {
			t.Fatalf("ExtractStage(%d): geometry %d×%d", factor, stage.Arrays(), stage.BucketsPerArray())
		}
		if stage.SumValues() != s.SumValues() {
			t.Fatalf("ExtractStage(%d): mass %d, fat has %d", factor, stage.SumValues(), s.SumValues())
		}
	}
	if !fatBefore.Equal(s) {
		t.Fatal("ExtractStage mutated the fat sketch")
	}

	if _, err := s.ExtractStage(3); err == nil {
		t.Fatal("ExtractStage(3) accepted a non-power-of-two factor")
	}
	if _, err := s.ExtractStage(128); err == nil {
		t.Fatal("ExtractStage(128) accepted a factor exceeding the geometry")
	}
}

// TestOccupiedBucketsSelfAddressing pins the invariant the report
// decoder's invertibility check relies on: in any sketch — including
// one compressed to a smaller stage — every occupied bucket holds a
// key that hashes to exactly that bucket in its array.
func TestOccupiedBucketsSelfAddressing(t *testing.T) {
	for _, factor := range []int{1, 2, 4} {
		s := NewBasic[flowkey.FiveTuple](Config{Arrays: 3, BucketsPerArray: 32, Seed: 13})
		stageStream(s, 30000, 6)
		stage, err := s.ExtractStage(factor)
		if err != nil {
			t.Fatal(err)
		}
		d, l := stage.Arrays(), stage.BucketsPerArray()
		buckets := stage.Buckets()
		for i := 0; i < d; i++ {
			for j := 0; j < l; j++ {
				b := buckets[i*l+j]
				if b.Val == 0 {
					continue
				}
				if got := stage.BucketIndices(b.Key)[i]; int(got) != j {
					t.Fatalf("factor %d: bucket (%d,%d) holds a key hashing to %d", factor, i, j, got)
				}
			}
		}
	}
}

// TestMarshaledSizePinned pins the raw-bytes baseline: a 24-byte
// header, 4 bytes per seed and 21 bytes per five-tuple bucket. The
// 500 KB geometry is the one whose size cocoperf's ingest workloads
// report as wire_kb_per_epoch (512,012 B = 500.01171875 KB).
func TestMarshaledSizePinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{Arrays: 2, BucketsPerArray: 64, Seed: 1}, 2720},
		{Config{Arrays: 3, BucketsPerArray: 17, Seed: 2}, 1107},
		{ConfigForMemory[flowkey.FiveTuple](DefaultArrays, 500<<10, 3), 512012},
	} {
		s := NewBasic[flowkey.FiveTuple](tc.cfg)
		stageStream(s, 1000, 7)
		if got := s.MarshaledSize(); got != tc.want {
			t.Fatalf("%d×%d: MarshaledSize() = %d, want %d", tc.cfg.Arrays, tc.cfg.BucketsPerArray, got, tc.want)
		}
	}
}

// TestSetRNGStateResumesSequence: restoring a captured state makes two
// sketches with identical buckets evolve identically — the property
// that lets a reconstructed stage continue exactly where the shipped
// one stopped.
func TestSetRNGStateResumesSequence(t *testing.T) {
	s := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 16, Seed: 3})
	stageStream(s, 4000, 8)

	c := NewBasic[flowkey.FiveTuple](Config{Arrays: 2, BucketsPerArray: 16, Seed: 3})
	if err := c.Merge(s); err != nil { // empty-merge copies buckets, no RNG draws
		t.Fatal(err)
	}
	c.SetRNGState(s.RNGState())

	stageStream(s, 4000, 9)
	stageStream(c, 4000, 9)
	if !s.Equal(c) {
		t.Fatal("restored RNG state did not reproduce the insertion sequence")
	}
}

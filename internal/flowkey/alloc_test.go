package flowkey

import "testing"

// TestHashSeedsNoAllocs pins the encode-once multi-seed hash — called
// once per packet on every ingest path — at zero heap allocations.
func TestHashSeedsNoAllocs(t *testing.T) {
	k := FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 443, Proto: 6,
	}
	seeds := []uint32{1, 2, 3, 4}
	out := make([]uint32, len(seeds))
	if n := testing.AllocsPerRun(1000, func() { k.HashSeeds(seeds, out) }); n != 0 {
		t.Errorf("HashSeeds allocates %.1f times per call, want 0", n)
	}
}

// TestRSSIndexNoAllocs pins the replay/partitioner steering
// function at zero heap allocations — its single-seed HashSeeds call
// uses stack arrays that must not escape.
func TestRSSIndexNoAllocs(t *testing.T) {
	k := FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 443, Proto: 6,
	}
	if n := testing.AllocsPerRun(1000, func() { _ = RSSIndex(k, 7, 8) }); n != 0 {
		t.Errorf("RSSIndex allocates %.1f times per call, want 0", n)
	}
}

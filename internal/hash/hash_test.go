package hash

import (
	"testing"
	"testing/quick"
)

func TestBob32Deterministic(t *testing.T) {
	f := func(key []byte, seed uint32) bool {
		return Bob32(key, seed) == Bob32(key, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBob32SeedSensitivity(t *testing.T) {
	key := []byte("192.168.0.1:443->10.0.0.2:80/6")
	seen := make(map[uint32]bool)
	for seed := uint32(0); seed < 1000; seed++ {
		seen[Bob32(key, seed)] = true
	}
	if len(seen) < 990 {
		t.Fatalf("only %d distinct hashes over 1000 seeds; seed barely mixed", len(seen))
	}
}

func TestBob32KeySensitivity(t *testing.T) {
	// Flipping a single bit of the key should change the hash almost always.
	base := make([]byte, 13)
	for i := range base {
		base[i] = byte(i * 17)
	}
	h0 := Bob32(base, 42)
	same := 0
	for i := 0; i < len(base)*8; i++ {
		k := make([]byte, len(base))
		copy(k, base)
		k[i/8] ^= 1 << (i % 8)
		if Bob32(k, 42) == h0 {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d single-bit flips collided with the base hash", same)
	}
}

func TestBob32TailLengths(t *testing.T) {
	// Every tail length 0..12 must be handled; keys that are prefixes of
	// each other must not collide systematically.
	long := make([]byte, 64)
	for i := range long {
		long[i] = byte(i)
	}
	seen := make(map[uint32]int)
	for n := 0; n <= len(long); n++ {
		h := Bob32(long[:n], 7)
		if prev, dup := seen[h]; dup {
			t.Fatalf("length %d and %d collide", prev, n)
		}
		seen[h] = n
	}
}

func TestBob32Distribution(t *testing.T) {
	// Bucketize sequential integer keys and check rough uniformity.
	const buckets = 64
	const n = 64 * 1024
	var counts [buckets]int
	var key [8]byte
	for i := 0; i < n; i++ {
		key[0] = byte(i)
		key[1] = byte(i >> 8)
		key[2] = byte(i >> 16)
		key[3] = byte(i >> 24)
		counts[Bob32(key[:], 1)%buckets]++
	}
	mean := n / buckets
	for b, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("bucket %d has %d items, expected about %d", b, c, mean)
		}
	}
}

func TestNewFamilyDistinctSeeds(t *testing.T) {
	f := NewFamily(16, 0)
	if f.Size() != 16 {
		t.Fatalf("Size() = %d, want 16", f.Size())
	}
	seen := make(map[uint32]bool)
	for i := 0; i < f.Size(); i++ {
		s := f.Seed(i)
		if seen[s] {
			t.Fatalf("duplicate seed %#x at index %d", s, i)
		}
		seen[s] = true
	}
}

func TestFamilyIndependence(t *testing.T) {
	// Two functions of a family should disagree on most keys.
	f := NewFamily(2, 99)
	agree := 0
	var key [4]byte
	const n = 4096
	for i := 0; i < n; i++ {
		key[0], key[1] = byte(i), byte(i>>8)
		if f.Hash(0, key[:])%1024 == f.Hash(1, key[:])%1024 {
			agree++
		}
	}
	// Expected agreement is n/1024 = 4; allow generous slack.
	if agree > 32 {
		t.Fatalf("functions agree on %d/%d keys; not independent", agree, n)
	}
}

func TestNewFamilyPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFamily(0, 0) did not panic")
		}
	}()
	NewFamily(0, 0)
}

// TestWideLengthsDistinct checks that keys which are prefixes of each
// other, across the zero-padded tails and the 16-byte block chain, do
// not collide: the length is part of the hash.
func TestWideLengthsDistinct(t *testing.T) {
	long := make([]byte, 64)
	seen := make(map[uint64]int)
	for n := 0; n <= len(long); n++ {
		h := Wide(long[:n], 7)
		if prev, dup := seen[h]; dup {
			t.Fatalf("all-zero keys of length %d and %d collide", prev, n)
		}
		seen[h] = n
	}
}

// TestWideKeySensitivity flips every bit of keys of the sketches' key
// lengths, and of the seed: each flip must change the hash.
func TestWideKeySensitivity(t *testing.T) {
	for _, n := range []int{4, 8, 13, 16, 40} {
		base := make([]byte, n)
		for i := range base {
			base[i] = byte(i * 17)
		}
		h0 := Wide(base, 42)
		for i := 0; i < n*8; i++ {
			k := append([]byte(nil), base...)
			k[i/8] ^= 1 << (i % 8)
			if Wide(k, 42) == h0 {
				t.Fatalf("len %d: flipping bit %d leaves the hash unchanged", n, i)
			}
		}
		for i := 0; i < 64; i++ {
			if Wide(base, 42^1<<i) == h0 {
				t.Fatalf("len %d: flipping seed bit %d leaves the hash unchanged", n, i)
			}
		}
	}
}

// TestLanes pins the double-hashing split: lane i is lo + i·hi mod
// 2^32.
func TestLanes(t *testing.T) {
	h := uint64(0xfffffff0_00000020)
	out := make([]uint32, 4)
	Lanes(h, out)
	for i, got := range out {
		if want := uint32(0x20) + uint32(i)*0xfffffff0; got != want {
			t.Fatalf("lane %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestWideSeedFoldsEnds checks which per-array seeds key the wide
// hash: the first and the last.
func TestWideSeedFoldsEnds(t *testing.T) {
	if got := WideSeed([]uint32{1, 2, 3}); got != 3<<32|1 {
		t.Fatalf("WideSeed = %#x", got)
	}
	if got := WideSeed([]uint32{5}); got != 5<<32|5 {
		t.Fatalf("WideSeed of one seed = %#x", got)
	}
}

// BenchmarkWide_13B is the wide hash of a 5-tuple-sized key from its
// bytes; compare BenchmarkBob32_13B, which d-row sketches pay d times.
func BenchmarkWide_13B(b *testing.B) {
	key := make([]byte, 13)
	b.SetBytes(13)
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		_ = Wide(key, 42)
	}
}

func BenchmarkBob32_13B(b *testing.B) {
	key := make([]byte, 13)
	b.SetBytes(13)
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		_ = Bob32(key, 42)
	}
}

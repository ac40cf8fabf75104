package flowkey

import (
	"math"
	"math/rand"
	"testing"

	"cocosketch/internal/hash"
)

// hashKey is the part of Key these tests use; Key itself embeds
// comparable, so it cannot be a value type.
type hashKey interface {
	HashSeeds(seeds []uint32, out []uint32)
	AppendBytes(dst []byte) []byte
}

// wideRef is the byte-level reference of HashSeeds: the wide hash of
// the canonical encoding, keyed by the folded seeds, split into lanes.
func wideRef(k hashKey, seeds []uint32) []uint32 {
	out := make([]uint32, len(seeds))
	hash.Lanes(hash.Wide(k.AppendBytes(nil), hash.WideSeed(seeds)), out)
	return out
}

// checkHashSeeds fails t unless k's field-assembled HashSeeds matches
// wideRef under seeds.
func checkHashSeeds(t *testing.T, name string, k hashKey, seeds []uint32) {
	t.Helper()
	got := make([]uint32, len(seeds))
	k.HashSeeds(seeds, got)
	for i, want := range wideRef(k, seeds) {
		if got[i] != want {
			t.Fatalf("%s %v, %d seeds: lane %d = %#x, byte reference %#x", name, k, len(seeds), i, got[i], want)
		}
	}
}

// keysFromBytes builds one key of every type from the leading bytes of
// b (zero-padded to 16), so one input covers all four field paths.
func keysFromBytes(b []byte) map[string]hashKey {
	var buf [16]byte
	copy(buf[:], b)
	ft, _ := FiveTupleFromBytes(buf[:FiveTupleLen])
	v4, _ := IPv4FromBytes(buf[:4])
	pair, _ := IPPairFromBytes(buf[:8])
	v6, _ := IPv6FromBytes(buf[:])
	return map[string]hashKey{"FiveTuple": ft, "IPv4": v4, "IPPair": pair, "IPv6": v6}
}

// TestHashSeedsMatchesWide pins every key type's field-assembled
// HashSeeds to the byte-level reference over AppendBytes, for random
// keys and every sketch depth the lanes are folded from.
func TestHashSeedsMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	raw := make([]byte, 16)
	for trial := 0; trial < 200; trial++ {
		rng.Read(raw)
		for d := 1; d <= 5; d++ {
			seeds := make([]uint32, d)
			for i := range seeds {
				seeds[i] = rng.Uint32()
			}
			for name, k := range keysFromBytes(raw) {
				checkHashSeeds(t, name, k, seeds)
			}
		}
	}
}

// TestHashSeedsZeroValue covers the zero keys used as empty-bucket
// sentinels, under the degenerate all-zero and all-ones seeds.
func TestHashSeedsZeroValue(t *testing.T) {
	for _, seeds := range [][]uint32{{0}, {0, 0}, {1, ^uint32(0)}, {^uint32(0), 0, ^uint32(0)}} {
		for name, k := range keysFromBytes(nil) {
			checkHashSeeds(t, name, k, seeds)
		}
	}
}

// FuzzHashSeedsMatchesWide asserts the field path ≡ byte reference
// property of TestHashSeedsMatchesWide on arbitrary key bytes, seeds
// and depths.
func FuzzHashSeedsMatchesWide(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint8(1))
	f.Add([]byte{10, 0, 0, 1, 10, 0, 0, 2, 0x04, 0xd2, 0, 80, 6}, uint32(42), uint32(77), uint8(2))
	f.Add([]byte("0123456789abcdef"), ^uint32(0), uint32(1), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, s0, s1 uint32, d uint8) {
		seeds := make([]uint32, 1+int(d)%8)
		for i := range seeds {
			seeds[i] = s0 + uint32(i)*s1
		}
		for name, k := range keysFromBytes(raw) {
			checkHashSeeds(t, name, k, seeds)
		}
	})
}

// structuredKeys returns the two key sets real traffic is made of and
// a weak hash spreads badly: one /24 talking to another (only the host
// bytes vary), and one host pair where only the ports vary.
func structuredKeys() map[string][]FiveTuple {
	var hosts, ports []FiveTuple
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			hosts = append(hosts, FiveTuple{
				SrcIP: [4]byte{10, 1, 2, byte(a)}, DstIP: [4]byte{192, 168, 7, byte(b)},
				SrcPort: 40000, DstPort: 443, Proto: 6,
			})
			ports = append(ports, FiveTuple{
				SrcIP: [4]byte{10, 1, 2, 3}, DstIP: [4]byte{192, 168, 7, 9},
				SrcPort: uint16(1024 + a*61), DstPort: uint16(b), Proto: 17,
			})
		}
	}
	return map[string][]FiveTuple{"hosts": hosts, "ports": ports}
}

// bucketIndex is core's multiply-shift range reduction of a lane.
func bucketIndex(lane uint32, l int) int { return int(uint64(lane) * uint64(l) >> 32) }

// TestHashSeedsUniformBuckets runs a chi-square test of the bucket
// indices of every lane of a d=2 sketch over structured keys. With
// 65536 keys, the statistic over l−1 degrees of freedom must stay
// within four standard deviations (√(2(l−1))) of its mean, under
// several seeds.
func TestHashSeedsUniformBuckets(t *testing.T) {
	for name, keys := range structuredKeys() {
		for _, l := range []int{64, 1000, 4096} {
			for seed := uint32(1); seed <= 3; seed++ {
				seeds := []uint32{seed * 0x9e3779b9, seed * 0x85ebca6b}
				counts := make([][]int, len(seeds))
				for i := range counts {
					counts[i] = make([]int, l)
				}
				lanes := make([]uint32, len(seeds))
				for _, k := range keys {
					k.HashSeeds(seeds, lanes)
					for i, h := range lanes {
						counts[i][bucketIndex(h, l)]++
					}
				}
				want := float64(len(keys)) / float64(l)
				df := float64(l - 1)
				limit := df + 4*math.Sqrt(2*df)
				for i, c := range counts {
					var chi2 float64
					for _, n := range c {
						diff := float64(n) - want
						chi2 += diff * diff / want
					}
					if chi2 > limit {
						t.Errorf("%s, l=%d, seed %d, lane %d: chi-square %.0f over %d buckets exceeds %.0f",
							name, l, seed, i, chi2, l, limit)
					}
				}
			}
		}
	}
}

// TestHashSeedsPairsIndependent checks that the two bucket indices of
// a d=2 sketch are independent: two keys share both buckets at about
// 1/l² (lanes derived from each other would share at about 1/l). The
// count of colliding key pairs must land within 15% of C(n,2)/l².
func TestHashSeedsPairsIndependent(t *testing.T) {
	seeds := []uint32{0x1234567, 0x89abcdef}
	for name, keys := range structuredKeys() {
		for _, l := range []int{64, 128} {
			cells := make(map[[2]int]int)
			lanes := make([]uint32, 2)
			for _, k := range keys {
				k.HashSeeds(seeds, lanes)
				cells[[2]int{bucketIndex(lanes[0], l), bucketIndex(lanes[1], l)}]++
			}
			var pairs float64
			for _, c := range cells {
				pairs += float64(c) * float64(c-1) / 2
			}
			n := float64(len(keys))
			want := n * (n - 1) / 2 / float64(l*l)
			if math.Abs(pairs-want) > 0.15*want {
				t.Errorf("%s, l=%d: %.0f key pairs share both buckets, want about %.0f", name, l, pairs, want)
			}
		}
	}
}

// BenchmarkFiveTupleHashSeeds measures the d=2 per-packet hashing cost
// of the sketch: one wide hash split into two lanes.
func BenchmarkFiveTupleHashSeeds(b *testing.B) {
	k := FiveTuple{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1234, DstPort: 80, Proto: 6}
	seeds := []uint32{42, 77}
	var out [2]uint32
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		k.HashSeeds(seeds, out[:])
	}
}

// BenchmarkFiveTupleHash is two per-row Bob32 hashes, the cost the
// baselines pay per d=2 update; compare BenchmarkFiveTupleHashSeeds.
func BenchmarkFiveTupleHash(b *testing.B) {
	k := FiveTuple{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1234, DstPort: 80, Proto: 6}
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		_ = k.Hash(42)
		_ = k.Hash(77)
	}
}

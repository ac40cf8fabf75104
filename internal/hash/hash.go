// Package hash provides the seeded hash functions used by the sketches
// in this repository.
//
// Bob32 is an implementation of Bob Jenkins' 1996 lookup ("Bob hash")
// used by the CocoSketch paper (reference [83]). The baseline sketches
// hash once per row with it, deriving d independent functions from d
// distinct seeds (see Family).
//
// CocoSketch's bucket indices come instead from one 64-bit hash per
// key, Wide, split into d 32-bit lanes by double hashing (Lanes): a
// d-array update costs one hash, not d.
package hash

import "math/bits"

// Bob32 computes Bob Jenkins' 32-bit hash of key with the given seed.
//
// This is the classic lookup hash from
// http://burtleburtle.net/bob/hash/evahash.html: the key is consumed in
// 12-byte blocks mixed into three lanes a, b, c.
func Bob32(key []byte, seed uint32) uint32 {
	var a, b, c uint32
	a = 0x9e3779b9
	b = 0x9e3779b9
	c = seed

	i := 0
	for ; len(key)-i >= 12; i += 12 {
		a += uint32(key[i]) | uint32(key[i+1])<<8 | uint32(key[i+2])<<16 | uint32(key[i+3])<<24
		b += uint32(key[i+4]) | uint32(key[i+5])<<8 | uint32(key[i+6])<<16 | uint32(key[i+7])<<24
		c += uint32(key[i+8]) | uint32(key[i+9])<<8 | uint32(key[i+10])<<16 | uint32(key[i+11])<<24
		a, b, c = mix(a, b, c)
	}

	c += uint32(len(key))
	rest := key[i:]
	// Fall through is deliberate in the original C; replicate by
	// accumulating whatever tail bytes remain.
	switch len(rest) {
	case 11:
		c += uint32(rest[10]) << 24
		fallthrough
	case 10:
		c += uint32(rest[9]) << 16
		fallthrough
	case 9:
		c += uint32(rest[8]) << 8
		fallthrough
	// The first byte of c is reserved for the length.
	case 8:
		b += uint32(rest[7]) << 24
		fallthrough
	case 7:
		b += uint32(rest[6]) << 16
		fallthrough
	case 6:
		b += uint32(rest[5]) << 8
		fallthrough
	case 5:
		b += uint32(rest[4])
		fallthrough
	case 4:
		a += uint32(rest[3]) << 24
		fallthrough
	case 3:
		a += uint32(rest[2]) << 16
		fallthrough
	case 2:
		a += uint32(rest[1]) << 8
		fallthrough
	case 1:
		a += uint32(rest[0])
	}
	_, _, c = mix(a, b, c)
	return c
}

// mix is Bob Jenkins' reversible 96-bit mixing step.
func mix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return a, b, c
}

// Family is a set of independent hash functions obtained from distinct
// seeds. The zero value is not usable; construct with NewFamily.
type Family struct {
	seeds []uint32
}

// NewFamily returns a family of n independent hash functions. The base
// seed makes the family reproducible; families with different base seeds
// are independent of each other.
func NewFamily(n int, base uint32) *Family {
	if n <= 0 {
		panic("hash: family size must be positive")
	}
	seeds := make([]uint32, n)
	s := base
	for i := range seeds {
		// SplitMix-style seed sequence so that adjacent bases do not
		// produce correlated seeds.
		s += 0x9e3779b9
		z := s
		z ^= z >> 16
		z *= 0x85ebca6b
		z ^= z >> 13
		z *= 0xc2b2ae35
		z ^= z >> 16
		seeds[i] = z
	}
	return &Family{seeds: seeds}
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Hash applies the i-th function of the family to key.
func (f *Family) Hash(i int, key []byte) uint32 {
	return Bob32(key, f.seeds[i])
}

// Seed returns the i-th seed, for callers that hash incrementally.
func (f *Family) Seed(i int) uint32 { return f.seeds[i] }

// Multipliers of the wide hash (wyhash's default secrets).
const (
	wideP0 = 0xa0761d6478bd642f
	wideP1 = 0xe7037ed1a0b428db
)

// Wide hashes key to 64 bits under seed. It is the byte-level
// definition of the wide hash: the key is read as little-endian 64-bit
// words, zero-padded at the end, two words per 16-byte block, and each
// block is folded in with Wide2. A key type whose canonical encoding
// is at most 16 bytes packs those two words straight from its fields
// and calls Wide2, which gives the same hash without building the
// bytes.
func Wide(key []byte, seed uint64) uint64 {
	n := len(key)
	for len(key) > 16 {
		seed = Wide2(loadLE(key[:8]), loadLE(key[8:16]), 16, seed)
		key = key[16:]
	}
	if len(key) > 8 {
		return Wide2(loadLE(key[:8]), loadLE(key[8:]), n, seed)
	}
	return Wide2(loadLE(key), 0, n, seed)
}

// loadLE reads up to 8 bytes as a little-endian word.
func loadLE(b []byte) uint64 {
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// Wide2 is the wide hash of an n-byte key packed into two
// little-endian words (w0 = bytes 0–7, w1 = bytes 8–15, zero-padded):
// a wyhash-style finalizer of two 64×64→128-bit multiplies, each
// folded to 64 bits by xoring its halves.
func Wide2(w0, w1 uint64, n int, seed uint64) uint64 {
	hi, lo := bits.Mul64(w0^wideP1, w1^seed^wideP0)
	hi, lo = bits.Mul64(lo^wideP0^uint64(n), hi^wideP1)
	return hi ^ lo
}

// WideSeed folds the 32-bit per-array seeds of a d-array sketch into
// the wide hash's 64-bit seed: seeds[0] in the low half, seeds[d−1] in
// the high half. The sketch keeps serializing its d seeds unchanged.
func WideSeed(seeds []uint32) uint64 {
	return uint64(seeds[0]) | uint64(seeds[len(seeds)-1])<<32
}

// Lanes splits a wide hash h into len(out) 32-bit lanes by
// Kirsch–Mitzenmacher double hashing ("Less Hashing, Same
// Performance", ESA 2006): lane i is lo + i·hi over h's two halves.
// Two keys agree on lanes 0 and 1 only if their whole 64-bit hashes
// agree.
func Lanes(h uint64, out []uint32) {
	lo, hi := uint32(h), uint32(h>>32)
	for i := range out {
		out[i] = lo
		lo += hi
	}
}

// Package flowkey defines the flow-key model of the CocoSketch paper:
// a full key kF declared before measurement, and partial keys kP ≺ kF
// obtained from kF by a mapping g(·) (Definition 1 of the paper).
//
// The canonical full key is the 5-tuple (FiveTuple, 13 bytes). Partial
// keys are expressed as bit masks over the canonical encoding (Mask), so
// that any subset of fields and any field prefix — e.g. (SrcIP, DstIP),
// SrcIP/24 — is a partial key. Smaller standalone key types (IPv4, IPPair)
// are provided for experiments whose full key is itself a single field.
package flowkey

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"

	"cocosketch/internal/hash"
)

// Key is the constraint satisfied by every flow-key type usable in a
// sketch. Keys are small comparable values; Hash must be deterministic
// and well-mixed for every seed.
type Key interface {
	comparable
	// Hash returns a 32-bit hash of the key under the given seed.
	Hash(seed uint32) uint32
	// HashSeeds writes len(seeds) 32-bit lanes of one wide hash of the
	// key to out[:len(seeds)]: hash.Wide of the canonical encoding,
	// keyed by hash.WideSeed(seeds) and split by hash.Lanes. A d-array
	// sketch thus pays one hash per packet, not d. Lane i is not
	// Hash(seeds[i]).
	HashSeeds(seeds []uint32, out []uint32)
	// AppendBytes appends the canonical byte encoding of the key to dst
	// and returns the extended slice.
	AppendBytes(dst []byte) []byte
}

// FiveTupleLen is the length of the canonical 5-tuple encoding:
// SrcIP(4) ‖ DstIP(4) ‖ SrcPort(2) ‖ DstPort(2) ‖ Proto(1).
const FiveTupleLen = 13

// FiveTuple is the canonical full key kF of the paper's evaluation.
// The zero value is the empty flow (also used as the "not recorded"
// sentinel inside sketches).
//
// The blank tail pads the struct from 14 to 16 bytes. Go copies a
// 14-byte value with two overlapping 8-byte moves (bytes 0–7 and
// 6–13), and a later 4-byte load of bytes 4–7 spans both stores, so
// the CPU cannot forward it from its store buffer and stalls. A
// 16-byte key copies as two disjoint words, and the hot path copies
// keys by value at every hand-off (DESIGN.md §8). Blank fields take
// no part in == or in map hashing, and the canonical encoding stays
// 13 bytes.
type FiveTuple struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	_       [3]byte
}

// AppendBytes appends the canonical 13-byte encoding.
func (k FiveTuple) AppendBytes(dst []byte) []byte {
	return append(dst,
		k.SrcIP[0], k.SrcIP[1], k.SrcIP[2], k.SrcIP[3],
		k.DstIP[0], k.DstIP[1], k.DstIP[2], k.DstIP[3],
		byte(k.SrcPort>>8), byte(k.SrcPort),
		byte(k.DstPort>>8), byte(k.DstPort),
		k.Proto)
}

// Hash hashes the canonical encoding with Bob32.
func (k FiveTuple) Hash(seed uint32) uint32 {
	var buf [FiveTupleLen]byte
	b := k.AppendBytes(buf[:0])
	return hash.Bob32(b, seed)
}

// HashSeeds writes the lanes of one wide hash of the canonical
// encoding (see Key). The two hash words are built straight from the
// struct fields, matching the little-endian decode of the 13-byte
// encoding, so the hot path never materializes the bytes.
func (k FiveTuple) HashSeeds(seeds []uint32, out []uint32) {
	w0 := uint64(binary.LittleEndian.Uint32(k.SrcIP[:])) | uint64(binary.LittleEndian.Uint32(k.DstIP[:]))<<32
	// Bytes 8–12 are the big-endian ports and the protocol.
	w1 := uint64(bits.ReverseBytes16(k.SrcPort)) | uint64(bits.ReverseBytes16(k.DstPort))<<16 | uint64(k.Proto)<<32
	hash.Lanes(hash.Wide2(w0, w1, FiveTupleLen, hash.WideSeed(seeds)), out[:len(seeds)])
}

// String renders the flow as "src:port->dst:port/proto".
func (k FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d",
		netip.AddrFrom4(k.SrcIP), k.SrcPort,
		netip.AddrFrom4(k.DstIP), k.DstPort, k.Proto)
}

// FiveTupleFromBytes decodes a canonical 13-byte encoding.
func FiveTupleFromBytes(b []byte) (FiveTuple, error) {
	if len(b) != FiveTupleLen {
		return FiveTuple{}, fmt.Errorf("flowkey: want %d bytes, got %d", FiveTupleLen, len(b))
	}
	var k FiveTuple
	copy(k.SrcIP[:], b[0:4])
	copy(k.DstIP[:], b[4:8])
	k.SrcPort = uint16(b[8])<<8 | uint16(b[9])
	k.DstPort = uint16(b[10])<<8 | uint16(b[11])
	k.Proto = b[12]
	return k, nil
}

// IPv4 is a single-address key (e.g. full key SrcIP in the paper's
// Figure 18(b) and the 1-d HHH experiments).
type IPv4 [4]byte

// AppendBytes appends the 4 address bytes.
func (k IPv4) AppendBytes(dst []byte) []byte { return append(dst, k[0], k[1], k[2], k[3]) }

// Hash hashes the address with Bob32.
func (k IPv4) Hash(seed uint32) uint32 {
	var buf [4]byte = k
	return hash.Bob32(buf[:], seed)
}

// HashSeeds writes the lanes of one wide hash of the address (see Key).
func (k IPv4) HashSeeds(seeds []uint32, out []uint32) {
	w0 := uint64(binary.LittleEndian.Uint32(k[:]))
	hash.Lanes(hash.Wide2(w0, 0, 4, hash.WideSeed(seeds)), out[:len(seeds)])
}

// Uint32 returns the address as a big-endian integer.
func (k IPv4) Uint32() uint32 {
	return uint32(k[0])<<24 | uint32(k[1])<<16 | uint32(k[2])<<8 | uint32(k[3])
}

// IPv4FromUint32 builds an address key from a big-endian integer.
func IPv4FromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Prefix zeroes all but the leading bits address bits.
func (k IPv4) Prefix(bits int) IPv4 {
	if bits < 0 || bits > 32 {
		panic("flowkey: IPv4 prefix length out of range")
	}
	if bits == 0 {
		return IPv4{}
	}
	m := ^uint32(0) << (32 - uint(bits))
	return IPv4FromUint32(k.Uint32() & m)
}

// String renders the address in dotted-quad form.
func (k IPv4) String() string { return netip.AddrFrom4(k).String() }

// IPv4FromBytes decodes a canonical 4-byte encoding.
func IPv4FromBytes(b []byte) (IPv4, error) {
	if len(b) != 4 {
		return IPv4{}, fmt.Errorf("flowkey: want 4 bytes, got %d", len(b))
	}
	return IPv4{b[0], b[1], b[2], b[3]}, nil
}

// IPv6 is a single 128-bit address key, for deployments whose full key
// is a v6 address (the packet decoder can also fold v6 into the v4 key
// space; this type keeps the full bits).
type IPv6 [16]byte

// AppendBytes appends the 16 address bytes.
func (k IPv6) AppendBytes(dst []byte) []byte { return append(dst, k[:]...) }

// Hash hashes the address with Bob32.
func (k IPv6) Hash(seed uint32) uint32 {
	var buf [16]byte = k
	return hash.Bob32(buf[:], seed)
}

// HashSeeds writes the lanes of one wide hash of the address (see Key).
func (k IPv6) HashSeeds(seeds []uint32, out []uint32) {
	w0 := binary.LittleEndian.Uint64(k[0:8])
	w1 := binary.LittleEndian.Uint64(k[8:16])
	hash.Lanes(hash.Wide2(w0, w1, 16, hash.WideSeed(seeds)), out[:len(seeds)])
}

// Prefix zeroes all but the leading bits of the address.
func (k IPv6) Prefix(bits int) IPv6 {
	if bits < 0 || bits > 128 {
		panic("flowkey: IPv6 prefix length out of range")
	}
	var out IPv6
	full := bits / 8
	copy(out[:full], k[:full])
	if rem := bits % 8; rem > 0 && full < 16 {
		out[full] = k[full] & (0xFF << (8 - rem))
	}
	return out
}

// String renders the address in RFC 5952 form.
func (k IPv6) String() string { return netip.AddrFrom16(k).String() }

// IPv6FromBytes decodes a canonical 16-byte encoding.
func IPv6FromBytes(b []byte) (IPv6, error) {
	if len(b) != 16 {
		return IPv6{}, fmt.Errorf("flowkey: want 16 bytes, got %d", len(b))
	}
	var k IPv6
	copy(k[:], b)
	return k, nil
}

// IPPair is a (SrcIP, DstIP) key, the full key of the 2-d HHH experiments.
type IPPair struct {
	Src IPv4
	Dst IPv4
}

// AppendBytes appends src then dst address bytes.
func (k IPPair) AppendBytes(dst []byte) []byte {
	dst = k.Src.AppendBytes(dst)
	return k.Dst.AppendBytes(dst)
}

// Hash hashes the 8-byte encoding with Bob32.
func (k IPPair) Hash(seed uint32) uint32 {
	var buf [8]byte
	b := k.AppendBytes(buf[:0])
	return hash.Bob32(b, seed)
}

// HashSeeds writes the lanes of one wide hash of the 8-byte encoding
// (see Key).
func (k IPPair) HashSeeds(seeds []uint32, out []uint32) {
	w0 := uint64(binary.LittleEndian.Uint32(k.Src[:])) | uint64(binary.LittleEndian.Uint32(k.Dst[:]))<<32
	hash.Lanes(hash.Wide2(w0, 0, 8, hash.WideSeed(seeds)), out[:len(seeds)])
}

// Prefix applies independent prefix lengths to the two addresses.
func (k IPPair) Prefix(srcBits, dstBits int) IPPair {
	return IPPair{Src: k.Src.Prefix(srcBits), Dst: k.Dst.Prefix(dstBits)}
}

// String renders the pair as "src->dst".
func (k IPPair) String() string { return k.Src.String() + "->" + k.Dst.String() }

// IPPairFromBytes decodes a canonical 8-byte encoding.
func IPPairFromBytes(b []byte) (IPPair, error) {
	if len(b) != 8 {
		return IPPair{}, fmt.Errorf("flowkey: want 8 bytes, got %d", len(b))
	}
	var p IPPair
	copy(p.Src[:], b[0:4])
	copy(p.Dst[:], b[4:8])
	return p, nil
}

package core

import (
	"encoding/binary"
	"fmt"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
)

// Binary serialization lets a data plane ship its sketch to a central
// control plane (the paper's Step 3 runs off-switch) or snapshot a
// measurement epoch to disk. The format is versioned and fixed-width:
//
//	magic "COCO" | version u8 | variant u8 | d u32 | l u32 | keySize u16 |
//	rngState u64 | seeds [d]u32 | buckets d×l × (key [keySize]byte, val u64)
//
// all little-endian. Because flow-key types are generic, decoding
// takes the key codec explicitly (e.g. flowkey.FiveTupleFromBytes).
//
// The stream carries the hash seeds but not the hash function, so the
// version names the bucket placement too. Version 2 is the wide-hash
// layout (one 64-bit hash split into d lanes, DESIGN.md §8); a
// version-1 sketch, placed by d Bob hashes, is rejected instead of
// merging position by position into the wrong buckets.

const (
	serMagic   = "COCO"
	serVersion = 2

	variantBasic    = 0
	variantHardware = 1
)

func (t *table[K]) marshal(variant byte) []byte {
	keySize := sketch.KeySize[K]()
	size := 4 + 1 + 1 + 4 + 4 + 2 + 8 + 4*t.d + t.d*t.l*(keySize+8)
	out := make([]byte, 0, size)
	out = append(out, serMagic...)
	out = append(out, serVersion, variant)
	out = binary.LittleEndian.AppendUint32(out, uint32(t.d))
	out = binary.LittleEndian.AppendUint32(out, uint32(t.l))
	out = binary.LittleEndian.AppendUint16(out, uint16(keySize))
	out = binary.LittleEndian.AppendUint64(out, t.rng.State())
	for _, s := range t.seeds {
		out = binary.LittleEndian.AppendUint32(out, s)
	}
	for i := range t.buckets {
		out = t.buckets[i].Key.AppendBytes(out)
		out = binary.LittleEndian.AppendUint64(out, t.buckets[i].Val)
	}
	return out
}

// KeyDecoder reconstructs a key from its canonical encoding
// (flowkey.FiveTupleFromBytes, flowkey.IPv4FromBytes, …).
type KeyDecoder[K flowkey.Key] func([]byte) (K, error)

func unmarshalTable[K flowkey.Key](data []byte, wantVariant byte, decode KeyDecoder[K]) (table[K], error) {
	var zero table[K]
	keySize := sketch.KeySize[K]()
	header := 4 + 1 + 1 + 4 + 4 + 2 + 8
	if len(data) < header {
		return zero, fmt.Errorf("core: truncated sketch (%d bytes)", len(data))
	}
	if string(data[:4]) != serMagic {
		return zero, fmt.Errorf("core: bad magic %q", data[:4])
	}
	if data[4] != serVersion {
		return zero, fmt.Errorf("core: unsupported version %d", data[4])
	}
	if data[5] != wantVariant {
		return zero, fmt.Errorf("core: sketch variant %d, want %d", data[5], wantVariant)
	}
	d := int(binary.LittleEndian.Uint32(data[6:10]))
	l := int(binary.LittleEndian.Uint32(data[10:14]))
	ks := int(binary.LittleEndian.Uint16(data[14:16]))
	rngState := binary.LittleEndian.Uint64(data[16:24])
	if ks != keySize {
		return zero, fmt.Errorf("core: key size %d in stream, %d for this key type", ks, keySize)
	}
	if d <= 0 || l <= 0 {
		return zero, fmt.Errorf("core: invalid geometry d=%d l=%d", d, l)
	}
	want := header + 4*d + d*l*(keySize+8)
	if len(data) != want {
		return zero, fmt.Errorf("core: sketch payload is %d bytes, want %d", len(data), want)
	}

	t := newTable[K](Config{Arrays: d, BucketsPerArray: l})
	t.rng.SetState(rngState)
	off := header
	for i := 0; i < d; i++ {
		t.seeds[i] = binary.LittleEndian.Uint32(data[off : off+4])
		off += 4
	}
	for i := 0; i < d; i++ {
		for j := 0; j < l; j++ {
			key, err := decode(data[off : off+keySize])
			if err != nil {
				return zero, fmt.Errorf("core: bucket (%d,%d): %w", i, j, err)
			}
			off += keySize
			val := binary.LittleEndian.Uint64(data[off : off+8])
			off += 8
			t.buckets[i*l+j] = Bucket[K]{Key: key, Val: val}
		}
	}
	return t, nil
}

// MarshalBinary serializes the sketch.
func (s *Basic[K]) MarshalBinary() ([]byte, error) {
	return s.table.marshal(variantBasic), nil
}

// UnmarshalBasic reconstructs a basic CocoSketch serialized with
// MarshalBinary. Inserting into the restored sketch continues the
// exact deterministic sequence of the original.
func UnmarshalBasic[K flowkey.Key](data []byte, decode KeyDecoder[K]) (*Basic[K], error) {
	t, err := unmarshalTable(data, variantBasic, decode)
	if err != nil {
		return nil, err
	}
	return &Basic[K]{table: t}, nil
}

// MarshalBinary serializes the sketch. The divider is not part of the
// state; restored sketches use exact division until SetDivider.
func (s *Hardware[K]) MarshalBinary() ([]byte, error) {
	return s.table.marshal(variantHardware), nil
}

// UnmarshalHardware reconstructs a hardware-friendly CocoSketch.
func UnmarshalHardware[K flowkey.Key](data []byte, decode KeyDecoder[K]) (*Hardware[K], error) {
	t, err := unmarshalTable(data, variantHardware, decode)
	if err != nil {
		return nil, err
	}
	return &Hardware[K]{table: t, divider: ExactDivider{}}, nil
}

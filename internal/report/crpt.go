package report

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/keysort"
	"cocosketch/internal/sketch"
)

// The CRPT v3 payload layout (DESIGN.md §14 documents it byte by
// byte). Multi-byte integers are little-endian:
//
//	magic "CRPT" | version u8 | keySize u8 | d u16 | l u32 |
//	shrinkLog2 u8 | seeds d × u32 | epoch u32 | rngState u64 |
//	mass u64 | keyCount uvarint |
//	keyCount × { prefix u8 | keySize-prefix key bytes |
//	  mask ⌈d/8⌉ bytes | one uvarint counter per set mask bit }
//
// Keys appear in strictly increasing byte order; prefix is the length
// of the prefix a key shares with the one before it. Mask bit i (byte
// i/8, bit i%8) says the key holds a bucket in array i, the bucket it
// hashes to there. Versions 1 and 2 were the delta-coded positional
// layout; a decoder accepts version 3 only.
const (
	crptMagic   = "CRPT"
	crptVersion = 3

	// crptFixed is the header before the seeds; crptTail the epoch,
	// RNG state and mass after them.
	crptFixed = 4 + 1 + 1 + 2 + 4 + 1
	crptTail  = 4 + 8 + 8
)

// corruptf wraps ErrCorrupt with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// headerShrink checks that a stage of d arrays of l buckets of
// keySize-byte keys, cut at shrink, fits the CRPT v3 header, and
// returns log2(shrink).
func headerShrink(keySize, d, l, shrink int) (uint8, error) {
	if keySize <= 0 || keySize > keysort.MaxKeySize {
		return 0, fmt.Errorf("report: %d-byte keys outside CRPT v3's 1..%d", keySize, keysort.MaxKeySize)
	}
	if d <= 0 || d > math.MaxUint16 {
		return 0, fmt.Errorf("report: %d arrays outside CRPT v3's 1..%d", d, math.MaxUint16)
	}
	if shrink < 1 || shrink&(shrink-1) != 0 {
		return 0, fmt.Errorf("report: shrink factor %d is not a power of two", shrink)
	}
	if l <= 0 || uint64(l)*uint64(shrink) > math.MaxUint32 {
		return 0, fmt.Errorf("report: stage of %d buckets per array at shrink %d outside CRPT v3's range", l, shrink)
	}
	return uint8(bits.TrailingZeros(uint(shrink))), nil
}

// slot is where an occupied bucket's counter sits while the encoder
// sorts the buckets by key: its value and its array. keysort.Sort is
// stable, so the slots of one key stay in array order.
type slot struct {
	val uint64
	arr int
}

// Encode returns the CRPT v3 payload of stage, sealed as epoch, where
// shrink is the factor the stage was cut at from the fat sketch (1 for
// the fat sketch itself). Empty buckets must hold the zero key, as
// every sketch core builds does; a stage that breaks this could not be
// rebuilt bit for bit, so it is an error.
func Encode[K flowkey.Key](epoch uint32, stage *core.Basic[K], shrink int) ([]byte, error) {
	keySize := sketch.KeySize[K]()
	d, l := stage.Arrays(), stage.BucketsPerArray()
	shrinkLog, err := headerShrink(keySize, d, l, shrink)
	if err != nil {
		return nil, err
	}
	buckets := stage.Buckets()
	occupied := 0
	var zero K
	for i := range buckets {
		if buckets[i].Val != 0 {
			occupied++
		} else if buckets[i].Key != zero {
			return nil, fmt.Errorf("report: empty bucket (%d,%d) holds a key", i/l, i%l)
		}
	}
	recs := make([]keysort.Row[slot], 0, occupied)
	kb := new([keysort.MaxKeySize]byte) // past keySize, always zero
	for i := range buckets {
		b := &buckets[i]
		if b.Val == 0 {
			continue
		}
		b.Key.AppendBytes(kb[:0])
		recs = append(recs, keysort.Row[slot]{Key: keysort.Of(kb), Val: slot{b.Val, i / l}})
	}
	recs = keysort.Sort(recs, make([]keysort.Row[slot], len(recs)))
	keys := keysort.Distinct(recs)
	maskBytes := (d + 7) / 8
	out := make([]byte, 0, crptFixed+4*d+crptTail+binary.MaxVarintLen64+
		keys*(1+keySize+maskBytes)+len(recs)*binary.MaxVarintLen64)
	out = append(out, crptMagic...)
	out = append(out, crptVersion, byte(keySize))
	out = binary.LittleEndian.AppendUint16(out, uint16(d))
	out = binary.LittleEndian.AppendUint32(out, uint32(l))
	out = append(out, shrinkLog)
	for _, s := range stage.Seeds() {
		out = binary.LittleEndian.AppendUint32(out, s)
	}
	out = binary.LittleEndian.AppendUint32(out, epoch)
	out = binary.LittleEndian.AppendUint64(out, stage.RNGState())
	out = binary.LittleEndian.AppendUint64(out, stage.SumValues())
	out = binary.AppendUvarint(out, uint64(keys))

	var cur [keysort.MaxKeySize]byte
	for i := 0; i < len(recs); {
		r := recs[i]
		prefix := 0
		if i > 0 {
			p := recs[i-1].Key
			if x := p.Hi ^ r.Key.Hi; x != 0 {
				prefix = bits.LeadingZeros64(x) / 8
			} else {
				prefix = 8 + bits.LeadingZeros64(p.Lo^r.Key.Lo)/8
			}
		}
		r.Key.Put(&cur)
		out = append(out, byte(prefix))
		out = append(out, cur[prefix:keySize]...)
		mask := len(out)
		out = append(out, make([]byte, maskBytes)...)
		j := i
		for ; j < len(recs) && recs[j].Key == r.Key; j++ {
			out[mask+recs[j].Val.arr/8] |= 1 << (recs[j].Val.arr % 8)
		}
		for ; i < j; i++ {
			out = binary.AppendUvarint(out, recs[i].Val.val)
		}
	}
	return out, nil
}

// uvarint reads a minimally encoded uvarint. A padded encoding decodes
// to the same value but re-encodes to other bytes, so it is rejected
// (n == 0) like a truncated one; n < 0 is an overflow, as in
// binary.Uvarint.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// KeyDecoder reconstructs a key from its canonical encoding
// (flowkey.FiveTupleFromBytes, flowkey.IPv4FromBytes, …).
type KeyDecoder[K flowkey.Key] func([]byte) (K, error)

// Decode rebuilds the stage of a CRPT v3 payload framed as epoch and
// returns it with the shrink factor its header declares. The header
// names the stage's hash seeds, so decoding needs no Config: the
// receiver checks the stage against its own (d, seeds, and l × shrink
// equal to its l). It only bounds the stage: a header declaring more
// than maxBuckets buckets (d × l) is rejected before the stage is
// allocated, so a receiver that passes its own geometry's count never
// allocates more than its own sketch for a corrupt or hostile header.
// Every key is placed in the buckets it hashes to, so the stage is the
// one the agent sealed, bit for bit; any payload that could not have
// come from Encode fails with ErrCorrupt.
func Decode[K flowkey.Key](epoch uint32, payload []byte, maxBuckets int, decode KeyDecoder[K]) (*core.Basic[K], int, error) {
	keySize := sketch.KeySize[K]()
	if len(payload) < crptFixed {
		return nil, 0, corruptf("truncated header (%d bytes)", len(payload))
	}
	if string(payload[:4]) != crptMagic {
		return nil, 0, corruptf("bad magic %q", payload[:4])
	}
	if payload[4] != crptVersion {
		return nil, 0, corruptf("unsupported version %d", payload[4])
	}
	if int(payload[5]) != keySize {
		return nil, 0, corruptf("key size %d, want %d", payload[5], keySize)
	}
	d := int(binary.LittleEndian.Uint16(payload[6:8]))
	l := int(binary.LittleEndian.Uint32(payload[8:12]))
	shrinkLog := int(payload[12])
	if d == 0 || l == 0 || d*l > maxBuckets {
		return nil, 0, corruptf("stage of %d×%d buckets outside 1..%d", d, l, maxBuckets)
	}
	if shrinkLog >= 32 || uint64(l)<<shrinkLog > 1<<32-1 {
		return nil, 0, corruptf("shrink 2^%d of %d buckets overflows the fat geometry", shrinkLog, l)
	}
	off := crptFixed + 4*d
	if len(payload) < off+crptTail {
		return nil, 0, corruptf("truncated header (%d bytes, %d arrays)", len(payload), d)
	}
	seeds := make([]uint32, d)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint32(payload[crptFixed+4*i:])
	}
	if hdrEpoch := binary.LittleEndian.Uint32(payload[off:]); hdrEpoch != epoch {
		return nil, 0, corruptf("payload sealed as epoch %d, message framed as %d", hdrEpoch, epoch)
	}
	rngState := binary.LittleEndian.Uint64(payload[off+4:])
	mass := binary.LittleEndian.Uint64(payload[off+12:])
	off += crptTail

	keys, n := uvarint(payload[off:])
	if n <= 0 {
		return nil, 0, corruptf("bad key count")
	}
	off += n
	if keys > uint64(d*l) {
		return nil, 0, corruptf("%d keys exceed %d buckets", keys, d*l)
	}

	stage := core.NewStage[K](l, seeds)
	stage.SetRNGState(rngState)
	buckets := stage.Buckets()
	maskBytes := (d + 7) / 8
	kb := make([]byte, keySize)
	var sum uint64
	for k := uint64(0); k < keys; k++ {
		if off >= len(payload) {
			return nil, 0, corruptf("truncated at key %d of %d", k, keys)
		}
		prefix := int(payload[off])
		off++
		// The prefix must be exactly the one shared with the previous
		// key, and the first byte after it must rise: keys are then
		// strictly increasing and the encoding is canonical.
		if k == 0 && prefix != 0 {
			return nil, 0, corruptf("first key shares a %d-byte prefix", prefix)
		}
		if prefix >= keySize {
			return nil, 0, corruptf("key %d duplicates its predecessor", k)
		}
		if off+keySize-prefix+maskBytes > len(payload) {
			return nil, 0, corruptf("truncated at key %d of %d", k, keys)
		}
		if k > 0 && payload[off] <= kb[prefix] {
			return nil, 0, corruptf("key %d does not sort above its predecessor", k)
		}
		off += copy(kb[prefix:], payload[off:off+keySize-prefix])
		key, err := decode(kb)
		if err != nil {
			return nil, 0, corruptf("key %d: %v", k, err)
		}
		mask := payload[off : off+maskBytes]
		off += maskBytes
		if d%8 != 0 && mask[maskBytes-1]>>(d%8) != 0 {
			return nil, 0, corruptf("key %d: mask names an array ≥ %d", k, d)
		}
		idx := stage.BucketIndices(key)
		set := 0
		for mb, m := range mask {
			for ; m != 0; m &= m - 1 {
				i := 8*mb + bits.TrailingZeros8(m)
				v, n := uvarint(payload[off:])
				if n < 0 {
					return nil, 0, corruptf("key %d array %d: counter overflows 64 bits", k, i)
				}
				if n == 0 {
					return nil, 0, corruptf("key %d array %d: bad counter", k, i)
				}
				off += n
				if v == 0 {
					return nil, 0, corruptf("key %d array %d: zero counter", k, i)
				}
				b := &buckets[i*l+int(idx[i])]
				if b.Val != 0 {
					return nil, 0, corruptf("key %d claims bucket (%d,%d), which another key holds", k, i, idx[i])
				}
				if sum+v < sum {
					return nil, 0, corruptf("key %d array %d: mass overflows", k, i)
				}
				sum += v
				b.Key, b.Val = key, v
				set++
			}
		}
		if set == 0 {
			return nil, 0, corruptf("key %d: empty mask", k)
		}
	}
	if off != len(payload) {
		return nil, 0, corruptf("%d trailing bytes", len(payload)-off)
	}
	if sum != mass {
		return nil, 0, corruptf("mass mismatch: decoded %d, header says %d", sum, mass)
	}
	return stage, 1 << shrinkLog, nil
}

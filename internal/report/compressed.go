package report

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
)

// The CRPT v2 payload layout (DESIGN.md §14 documents it byte by
// byte). Version 2 changed no byte of the layout: it marks stages
// whose buckets were placed by the wide hash (DESIGN.md §8), so a
// version-1 stage is rejected rather than decoded into the wrong
// buckets.
//
//	magic "CRPT" | version u8 | flags u8 | shrinkLog2 u8 | keySize u8 |
//	d u16 LE | l u32 LE | epoch u32 LE | baseEpoch u32 LE |
//	baseSum u64 LE | rngState u64 LE | sumValues u64 LE |
//	dictCount uvarint | dictCount × key bytes |
//	d × array blocks: occ uvarint, occ × { gap uvarint, ref uvarint,
//	  value (zigzag varint delta if ref == 0, else plain uvarint) }
const (
	crptMagic   = "CRPT"
	crptVersion = 2

	// flagDelta marks a payload encoded against the previous
	// acknowledged stage; clear means self-contained.
	flagDelta = 0x01

	crptHeaderSize = 4 + 1 + 1 + 1 + 1 + 2 + 4 + 4 + 4 + 8 + 8 + 8
)

// corruptf wraps ErrCorrupt with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// fnv-1a, inlined so the checksum needs no allocations per bucket.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// stageSum fingerprints a stage for the delta-base handshake: FNV-1a
// over the RNG state and, in positional order, every bucket's value
// plus — for occupied buckets only — its key bytes. Empty buckets
// contribute their (zero) value but never their key, so a stale key in
// a merged-empty bucket cannot desynchronize encoder and decoder.
func stageSum[K flowkey.Key](s *core.Basic[K]) uint64 {
	h := uint64(fnvOffset64)
	var scratch [8]byte
	mix8 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		for _, b := range scratch {
			h = (h ^ uint64(b)) * fnvPrime64
		}
	}
	mix8(s.RNGState())
	kb := make([]byte, 0, sketch.KeySize[K]())
	buckets := s.Buckets()
	for i := range buckets {
		b := &buckets[i]
		mix8(b.Val)
		if b.Val == 0 {
			continue
		}
		kb = b.Key.AppendBytes(kb[:0])
		for _, c := range kb {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	return h
}

// ackedBase is one end's record of the last stage both sides agreed
// on: the encoder's after an acknowledged exchange, the decoder's
// (per agent) after a successful decode.
type ackedBase[K flowkey.Key] struct {
	epoch uint32
	stage *core.Basic[K]
	sum   uint64
}

// compressedCodec carries the immutable geometry contract: reports
// must expand (small l × 2^shrinkLog) back to the fat geometry in cfg.
type compressedCodec[K flowkey.Key] struct {
	cfg       core.Config
	shrink    int
	shrinkLog uint8
	keySize   int
	decode    core.KeyDecoder[K]
}

// Compressed returns the bandwidth-frugal codec for sketches of the
// given fat geometry: Seal extracts a small stage at 1/shrink of the
// buckets per array (core.ExtractStage), Encode delta-encodes it
// against the last acknowledged epoch with varint counters and a
// per-epoch key dictionary, Decode reconstructs it positionally with
// an invertibility check on every dictionary key. shrink must be a
// power of two dividing cfg.BucketsPerArray; shrink 1 ships the full
// geometry but still benefits from sparse + delta encoding. The
// decoder also accepts full-snapshot ("COCO") payloads, so a
// compressed collector can serve a mixed fleet (DESIGN.md §14 has the
// compatibility matrix).
func Compressed[K flowkey.Key](cfg core.Config, shrink int, decode core.KeyDecoder[K]) (Codec[K], error) {
	ks := sketch.KeySize[K]()
	if ks <= 0 || ks > 255 {
		return nil, fmt.Errorf("report: key size %d bytes not encodable in CRPT (1..255)", ks)
	}
	if cfg.Arrays <= 0 || cfg.Arrays > math.MaxUint16 {
		return nil, fmt.Errorf("report: %d arrays out of CRPT range", cfg.Arrays)
	}
	if cfg.BucketsPerArray <= 0 {
		return nil, fmt.Errorf("report: non-positive buckets per array %d", cfg.BucketsPerArray)
	}
	if shrink < 1 || shrink&(shrink-1) != 0 {
		return nil, fmt.Errorf("report: shrink factor %d is not a power of two", shrink)
	}
	if cfg.BucketsPerArray%shrink != 0 {
		return nil, fmt.Errorf("report: shrink factor %d does not divide %d buckets per array", shrink, cfg.BucketsPerArray)
	}
	if decode == nil {
		return nil, fmt.Errorf("report: nil key decoder")
	}
	return &compressedCodec[K]{
		cfg:       cfg,
		shrink:    shrink,
		shrinkLog: uint8(bits.TrailingZeros(uint(shrink))),
		keySize:   ks,
		decode:    decode,
	}, nil
}

func (c *compressedCodec[K]) Name() string { return "compressed" }

func (c *compressedCodec[K]) Seal(fat *core.Basic[K]) (*core.Basic[K], error) {
	if c.shrink == 1 {
		return fat.Clone(), nil
	}
	return fat.ExtractStage(c.shrink)
}

func (c *compressedCodec[K]) NewEncoder() Encoder[K] {
	return &compressedEncoder[K]{c: c}
}

func (c *compressedCodec[K]) NewDecoder() Decoder[K] {
	return &compressedDecoder[K]{c: c, bases: make(map[uint16]*ackedBase[K])}
}

// compressedEncoder holds the agent-side delta base: the last sealed
// stage the collector acknowledged, or nil after a Reset (the next
// payload is then self-contained).
type compressedEncoder[K flowkey.Key] struct {
	c    *compressedCodec[K]
	base *ackedBase[K]
}

func (e *compressedEncoder[K]) Encode(epoch uint32, stage *core.Basic[K]) ([]byte, error) {
	c := e.c
	d := stage.Arrays()
	l := stage.BucketsPerArray()
	if d != c.cfg.Arrays {
		return nil, fmt.Errorf("report: stage has %d arrays, codec configured for %d", d, c.cfg.Arrays)
	}
	if l <= 0 || c.cfg.BucketsPerArray%l != 0 {
		return nil, fmt.Errorf("report: stage with %d buckets per array does not divide fat geometry %d", l, c.cfg.BucketsPerArray)
	}
	ratio := c.cfg.BucketsPerArray / l
	if ratio&(ratio-1) != 0 {
		return nil, fmt.Errorf("report: stage shrink ratio %d is not a power of two", ratio)
	}
	shrinkLog := bits.TrailingZeros(uint(ratio))

	// Delta only against a base of the exact same geometry: Encode
	// accepts any stage whose shrink divides the fat geometry, and a
	// stage of another geometry than the base goes self-contained.
	base := e.base
	if base != nil && (base.stage.Arrays() != d || base.stage.BucketsPerArray() != l) {
		base = nil
	}

	var flags byte
	var baseEpoch uint32
	var baseSum uint64
	var baseBuckets []core.Bucket[K]
	if base != nil {
		flags |= flagDelta
		baseEpoch = base.epoch
		baseSum = base.sum
		baseBuckets = base.stage.Buckets()
	}

	buckets := stage.Buckets()
	dictIndex := make(map[K]uint64)
	var dictKeys []K
	entries := make([]byte, 0, 16*d*l/8+2*d)
	for i := 0; i < d; i++ {
		row := buckets[i*l : (i+1)*l]
		occ := 0
		for j := range row {
			if row[j].Val != 0 {
				occ++
			}
		}
		entries = binary.AppendUvarint(entries, uint64(occ))
		prev := -1
		for j := range row {
			b := &row[j]
			if b.Val == 0 {
				continue
			}
			entries = binary.AppendUvarint(entries, uint64(j-prev-1))
			prev = j
			if baseBuckets != nil {
				bb := &baseBuckets[i*l+j]
				// Same key in the same bucket as the base epoch:
				// reference it (ref 0) and ship only the signed
				// counter delta. Counters near the int64 boundary
				// fall through to the dictionary path so the signed
				// arithmetic can never overflow.
				if bb.Val != 0 && bb.Key == b.Key &&
					b.Val <= math.MaxInt64 && bb.Val <= math.MaxInt64 {
					entries = binary.AppendUvarint(entries, 0)
					entries = binary.AppendVarint(entries, int64(b.Val)-int64(bb.Val))
					continue
				}
			}
			ref, ok := dictIndex[b.Key]
			if !ok {
				ref = uint64(len(dictKeys))
				dictIndex[b.Key] = ref
				dictKeys = append(dictKeys, b.Key)
			}
			entries = binary.AppendUvarint(entries, ref+1)
			entries = binary.AppendUvarint(entries, b.Val)
		}
	}

	out := make([]byte, 0, crptHeaderSize+binary.MaxVarintLen64+len(dictKeys)*c.keySize+len(entries))
	out = append(out, crptMagic...)
	out = append(out, crptVersion, flags, byte(shrinkLog), byte(c.keySize))
	out = binary.LittleEndian.AppendUint16(out, uint16(d))
	out = binary.LittleEndian.AppendUint32(out, uint32(l))
	out = binary.LittleEndian.AppendUint32(out, epoch)
	out = binary.LittleEndian.AppendUint32(out, baseEpoch)
	out = binary.LittleEndian.AppendUint64(out, baseSum)
	out = binary.LittleEndian.AppendUint64(out, stage.RNGState())
	out = binary.LittleEndian.AppendUint64(out, stage.SumValues())
	out = binary.AppendUvarint(out, uint64(len(dictKeys)))
	for _, k := range dictKeys {
		out = k.AppendBytes(out)
	}
	return append(out, entries...), nil
}

func (e *compressedEncoder[K]) Ack(epoch uint32, stage *core.Basic[K]) {
	e.base = &ackedBase[K]{epoch: epoch, stage: stage, sum: stageSum(stage)}
}

func (e *compressedEncoder[K]) Reset() { e.base = nil }

// compressedDecoder reconstructs stages on the collector and tracks
// the per-agent delta base. Base state only ever advances on a fully
// validated decode, and the stored base is a private clone, so callers
// may mutate returned stages (the collector merges into them).
type compressedDecoder[K flowkey.Key] struct {
	c     *compressedCodec[K]
	bases map[uint16]*ackedBase[K]
}

func (dec *compressedDecoder[K]) Decode(agent uint16, epoch uint32, payload []byte) (*core.Basic[K], error) {
	if len(payload) >= 4 && string(payload[:4]) == "COCO" {
		// Full-snapshot payload from a full-codec agent: accept it
		// unchanged. That agent keeps no delta base, so ours stays
		// untouched too.
		return core.UnmarshalBasic(payload, dec.c.decode)
	}
	c := dec.c
	if len(payload) < crptHeaderSize {
		return nil, corruptf("truncated header (%d bytes)", len(payload))
	}
	if string(payload[:4]) != crptMagic {
		return nil, corruptf("bad magic %q", payload[:4])
	}
	if payload[4] != crptVersion {
		return nil, corruptf("unsupported version %d", payload[4])
	}
	flags := payload[5]
	if flags&^byte(flagDelta) != 0 {
		return nil, corruptf("unknown flags %#x", flags)
	}
	shrinkLog := int(payload[6])
	if int(payload[7]) != c.keySize {
		return nil, corruptf("key size %d, want %d", payload[7], c.keySize)
	}
	d := int(binary.LittleEndian.Uint16(payload[8:10]))
	l := int(binary.LittleEndian.Uint32(payload[10:14]))
	hdrEpoch := binary.LittleEndian.Uint32(payload[14:18])
	baseEpoch := binary.LittleEndian.Uint32(payload[18:22])
	baseSum := binary.LittleEndian.Uint64(payload[22:30])
	rngState := binary.LittleEndian.Uint64(payload[30:38])
	sumValues := binary.LittleEndian.Uint64(payload[38:46])

	if d != c.cfg.Arrays {
		return nil, corruptf("stage has %d arrays, want %d", d, c.cfg.Arrays)
	}
	if shrinkLog > 30 || l <= 0 || l > c.cfg.BucketsPerArray || l<<shrinkLog != c.cfg.BucketsPerArray {
		return nil, corruptf("stage geometry %d buckets × shrink 2^%d does not expand to %d", l, shrinkLog, c.cfg.BucketsPerArray)
	}
	if hdrEpoch != epoch {
		return nil, corruptf("payload sealed as epoch %d, message framed as %d", hdrEpoch, epoch)
	}

	var base *ackedBase[K]
	if flags&flagDelta != 0 {
		b := dec.bases[agent]
		if b == nil || b.epoch != baseEpoch || b.sum != baseSum ||
			b.stage.Arrays() != d || b.stage.BucketsPerArray() != l {
			return nil, fmt.Errorf("%w (agent %d, claimed base epoch %d)", ErrBaseMismatch, agent, baseEpoch)
		}
		base = b
	}

	stage := core.NewBasic[K](core.Config{Arrays: d, BucketsPerArray: l, Seed: c.cfg.Seed})
	stage.SetRNGState(rngState)
	buckets := stage.Buckets()
	var baseBuckets []core.Bucket[K]
	if base != nil {
		baseBuckets = base.stage.Buckets()
	}

	off := crptHeaderSize
	dictCount, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return nil, corruptf("bad dictionary count")
	}
	off += n
	if dictCount > uint64(d*l) {
		return nil, corruptf("dictionary of %d keys exceeds %d buckets", dictCount, d*l)
	}
	dict := make([]K, dictCount)
	for i := range dict {
		if off+c.keySize > len(payload) {
			return nil, corruptf("truncated dictionary (key %d of %d)", i, dictCount)
		}
		k, err := c.decode(payload[off : off+c.keySize])
		if err != nil {
			return nil, corruptf("dictionary key %d: %v", i, err)
		}
		dict[i] = k
		off += c.keySize
	}

	var sum uint64
	for i := 0; i < d; i++ {
		occ, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, corruptf("array %d: bad occupancy", i)
		}
		off += n
		if occ > uint64(l) {
			return nil, corruptf("array %d: occupancy %d exceeds %d buckets", i, occ, l)
		}
		idx := -1
		for e := 0; e < int(occ); e++ {
			gap, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return nil, corruptf("array %d entry %d: bad bucket gap", i, e)
			}
			off += n
			if gap >= uint64(l) || idx+1+int(gap) >= l {
				return nil, corruptf("array %d entry %d: bucket index out of range", i, e)
			}
			idx += 1 + int(gap)
			pos := i*l + idx
			ref, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return nil, corruptf("array %d entry %d: bad key reference", i, e)
			}
			off += n
			var key K
			var val uint64
			if ref == 0 {
				if base == nil {
					return nil, corruptf("array %d entry %d: base reference in self-contained report", i, e)
				}
				bb := &baseBuckets[pos]
				if bb.Val == 0 {
					return nil, corruptf("array %d entry %d: references empty base bucket", i, e)
				}
				dv, n := binary.Varint(payload[off:])
				if n <= 0 {
					return nil, corruptf("array %d entry %d: bad counter delta", i, e)
				}
				off += n
				key = bb.Key
				val = bb.Val + uint64(dv)
				if dv >= 0 {
					if val < bb.Val {
						return nil, corruptf("array %d entry %d: counter overflow", i, e)
					}
				} else if val >= bb.Val {
					return nil, corruptf("array %d entry %d: counter underflow", i, e)
				}
				if val == 0 {
					return nil, corruptf("array %d entry %d: delta empties an occupied bucket", i, e)
				}
			} else {
				if ref > dictCount {
					return nil, corruptf("array %d entry %d: dictionary reference %d out of range", i, e, ref)
				}
				key = dict[ref-1]
				v, n := binary.Uvarint(payload[off:])
				if n <= 0 {
					return nil, corruptf("array %d entry %d: bad counter", i, e)
				}
				off += n
				if v == 0 {
					return nil, corruptf("array %d entry %d: zero counter for occupied bucket", i, e)
				}
				val = v
				// The invertibility check: a dictionary key must hash
				// to the exact bucket it claims, in this array, under
				// this geometry. Re-hashing is what makes the report
				// self-verifying — no decode table ships.
				if int(stage.BucketIndices(key)[i]) != idx {
					return nil, corruptf("array %d entry %d: key does not hash to bucket %d", i, e, idx)
				}
			}
			buckets[pos] = core.Bucket[K]{Key: key, Val: val}
			sum += val
		}
	}
	if off != len(payload) {
		return nil, corruptf("%d trailing bytes", len(payload)-off)
	}
	if sum != sumValues {
		return nil, corruptf("mass mismatch: decoded %d, header says %d", sum, sumValues)
	}

	// Keep a private clone as the next delta base — the caller owns
	// (and will merge into) the returned stage.
	dec.bases[agent] = &ackedBase[K]{epoch: epoch, stage: stage.Clone(), sum: stageSum(stage)}
	return stage, nil
}

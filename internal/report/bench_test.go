package report

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// benchCfg matches the oracle harness geometry, so the numbers here
// describe the same sketches the accuracy gates measure.
var benchCfg = core.Config{Arrays: 2, BucketsPerArray: 512, Seed: 0xBE}

// benchSketch fills a fat sketch with one epoch of skewed traffic.
func benchSketch(b *testing.B, seed int64) *core.Basic[flowkey.FiveTuple] {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := core.NewBasic[flowkey.FiveTuple](benchCfg)
	for i := 0; i < 50_000; i++ {
		s.Insert(key(uint32(rng.Intn(2000)), uint16(rng.Intn(30))), uint64(1+rng.Intn(3)))
	}
	return s
}

// rawSnapshot writes s as a full snapshot: d, l and the RNG state, the
// d hash seeds, then every bucket's key bytes and counter, all
// little-endian. It is the reference work a report replaced (what a
// report cost before CRPT v3), timed by the encode-full and decode-full
// arms; nothing ships it.
func rawSnapshot(s *core.Basic[flowkey.FiveTuple]) []byte {
	out := make([]byte, 0, s.MarshaledSize())
	out = binary.LittleEndian.AppendUint32(out, uint32(s.Arrays()))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.BucketsPerArray()))
	out = binary.LittleEndian.AppendUint64(out, s.RNGState())
	for _, seed := range s.Seeds() {
		out = binary.LittleEndian.AppendUint32(out, seed)
	}
	for _, b := range s.Buckets() {
		out = b.Key.AppendBytes(out)
		out = binary.LittleEndian.AppendUint64(out, b.Val)
	}
	return out
}

// parseRawSnapshot rebuilds the sketch rawSnapshot wrote: it checks the
// geometry against the length, parses every key and restores the
// counters and the RNG state.
func parseRawSnapshot(data []byte) (*core.Basic[flowkey.FiveTuple], error) {
	const header, bucket = 4 + 4 + 8, flowkey.FiveTupleLen + 8
	if len(data) < header {
		return nil, fmt.Errorf("truncated snapshot (%d bytes)", len(data))
	}
	d := int(binary.LittleEndian.Uint32(data))
	l := int(binary.LittleEndian.Uint32(data[4:]))
	if d <= 0 || l <= 0 || len(data) != header+4*d+d*l*bucket {
		return nil, fmt.Errorf("a %d-byte snapshot cannot hold %d×%d buckets", len(data), d, l)
	}
	off := header
	seeds := make([]uint32, d)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	s := core.NewStage[flowkey.FiveTuple](l, seeds)
	s.SetRNGState(binary.LittleEndian.Uint64(data[8:]))
	buckets := s.Buckets()
	for i := range buckets {
		key, err := flowkey.FiveTupleFromBytes(data[off : off+flowkey.FiveTupleLen])
		if err != nil {
			return nil, fmt.Errorf("bucket %d: %w", i, err)
		}
		buckets[i] = core.Bucket[flowkey.FiveTuple]{Key: key, Val: binary.LittleEndian.Uint64(data[off+flowkey.FiveTupleLen:])}
		off += bucket
	}
	return s, nil
}

// BenchmarkReportEncode times one epoch report's encoding: the full
// snapshot (rawSnapshot), the lossless shrink-1 stage that replaced
// it, and the shrink-8 stage. Reported, not gated.
func BenchmarkReportEncode(b *testing.B) {
	fat := benchSketch(b, 1)
	small, err := codec(b, benchCfg, 8).Seal(fat)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		encode func() ([]byte, error)
	}{
		{"encode-full", func() ([]byte, error) { return rawSnapshot(fat), nil }},
		{"encode-shrink-1", func() ([]byte, error) { return Encode(0, fat, 1) }},
		{"encode-compressed", func() ([]byte, error) { return Encode(0, small, 8) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bc.encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReportDecode compares collector-side decode throughput:
// rebuilding the fat sketch from its full snapshot (parseRawSnapshot,
// the work a shrink-8 report replaces) against the CRPT v3 decoder
// (varint parse, re-hashing every key into its buckets) on the
// shrink-8 stage. `make bench-report` gates the ratio.
func BenchmarkReportDecode(b *testing.B) {
	fat := benchSketch(b, 2)
	snapshot := rawSnapshot(fat)
	if back, err := parseRawSnapshot(snapshot); err != nil || !back.Equal(fat) {
		b.Fatalf("the snapshot does not rebuild the fat sketch (err %v)", err)
	}
	small, err := codec(b, benchCfg, 8).Seal(fat)
	if err != nil {
		b.Fatal(err)
	}
	report, err := Encode(0, small, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		payload []byte
		decode  func() error
	}{
		{"decode-full", snapshot, func() error {
			_, err := parseRawSnapshot(snapshot)
			return err
		}},
		{"decode-compressed", report, func() error {
			_, _, err := Decode(0, report, benchCfg.Arrays*benchCfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.payload)))
			for i := 0; i < b.N; i++ {
				if err := bc.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

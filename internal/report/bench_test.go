package report

import (
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

// BenchmarkReportEncode times one epoch report's encoding: the full
// MarshalBinary snapshot (what a report cost before CRPT v3), the
// lossless shrink-1 stage that replaced it, and the shrink-8 stage.
// Reported, not gated.
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
		{"encode-full", fat.MarshalBinary},
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

// BenchmarkReportDecode compares collector-side decode throughput: the
// full snapshot deserializer (core.UnmarshalBasic of the fat sketch,
// which a shrink-8 report replaces) against the CRPT v3 decoder
// (varint parse, re-hashing every key into its buckets) on the
// shrink-8 stage. `make bench-report` gates the ratio.
func BenchmarkReportDecode(b *testing.B) {
	fat := benchSketch(b, 2)
	snapshot, err := fat.MarshalBinary()
	if err != nil {
		b.Fatal(err)
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
			_, err := core.UnmarshalBasic(snapshot, flowkey.FiveTupleFromBytes)
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

package report

import (
	"bytes"
	"errors"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// fuzzCfg keeps the fuzz geometry tiny so each iteration is cheap.
var fuzzCfg = core.Config{Arrays: 2, BucketsPerArray: 8, Seed: 9}

// fuzzMaxBuckets is the receiver bound the fuzz target decodes with:
// fuzzCfg's d × l, as a collector of that geometry would pass.
var fuzzMaxBuckets = fuzzCfg.Arrays * fuzzCfg.BucketsPerArray

// FuzzDecode feeds arbitrary bytes to the CRPT v3 decoder: it must
// reject garbage with ErrCorrupt, never panic, and anything it accepts
// must re-encode to exactly the same bytes (the encoding is canonical,
// so one stage has one payload). Seed entries (also committed on disk
// under testdata/fuzz, regenerated by TestRegenReportFuzzCorpus) cover
// the adversarial classes listed in reportFuzzSeeds.
func FuzzDecode(f *testing.F) {
	for _, seed := range reportFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stage, shrink, err := Decode(1, data, fuzzMaxBuckets, flowkey.FiveTupleFromBytes)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection is not ErrCorrupt: %v", err)
			}
			return
		}
		again, err := Encode(1, stage, shrink)
		if err != nil {
			t.Fatalf("accepted stage does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes to other bytes:\n got %x\nwant %x", again, data)
		}
	})
}

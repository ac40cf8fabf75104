package report

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// fuzzStage is the seed corpus's stage: a shrink-2 stage of fuzzCfg
// (2 arrays of 4 buckets) over 20 flows.
func fuzzStage(tb testing.TB) *core.Basic[flowkey.FiveTuple] {
	tb.Helper()
	fat := core.NewBasic[flowkey.FiveTuple](fuzzCfg)
	for i := 0; i < 500; i++ {
		fat.Insert(key(uint32(i%20), 80), uint64(1+i%3))
	}
	stage, err := fat.ExtractStage(2)
	if err != nil {
		tb.Fatal(err)
	}
	return stage
}

// seedKey is one hand-assembled key entry: the shared-prefix byte, the
// whole key (its first prefix bytes are dropped on the wire), the mask
// and the counters' raw bytes.
type seedKey struct {
	prefix   int
	key      flowkey.FiveTuple
	mask     byte
	counters []byte
}

// handPayload assembles a payload with the fuzz stage's header (shrink
// 2, epoch 1) but the given mass and key entries, so a seed can break a
// rule Encode never breaks.
func handPayload(stage *core.Basic[flowkey.FiveTuple], mass uint64, keys ...seedKey) []byte {
	out := []byte(crptMagic)
	out = append(out, crptVersion, flowkey.FiveTupleLen)
	out = binary.LittleEndian.AppendUint16(out, uint16(stage.Arrays()))
	out = binary.LittleEndian.AppendUint32(out, uint32(stage.BucketsPerArray()))
	out = append(out, 1)
	for _, s := range stage.Seeds() {
		out = binary.LittleEndian.AppendUint32(out, s)
	}
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = binary.LittleEndian.AppendUint64(out, stage.RNGState())
	out = binary.LittleEndian.AppendUint64(out, mass)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = append(out, byte(k.prefix))
		out = append(out, k.key.AppendBytes(nil)[k.prefix:]...)
		out = append(out, k.mask)
		out = append(out, k.counters...)
	}
	return out
}

// sharedPrefix is the length of the common prefix of a's and b's
// canonical encodings.
func sharedPrefix(a, b flowkey.FiveTuple) int {
	ab, bb := a.AppendBytes(nil), b.AppendBytes(nil)
	n := 0
	for n < len(ab) && ab[n] == bb[n] {
		n++
	}
	return n
}

// collidingKeys returns two keys, in increasing byte order, that share
// their array-0 bucket of stage but not their array-1 bucket.
func collidingKeys(tb testing.TB, stage *core.Basic[flowkey.FiveTuple]) (flowkey.FiveTuple, flowkey.FiveTuple) {
	tb.Helper()
	first := key(5000, 80)
	idx := stage.BucketIndices(first)
	b0, b1 := idx[0], idx[1]
	for a := uint32(5001); a < 6000; a++ {
		k := key(a, 80)
		if idx := stage.BucketIndices(k); idx[0] == b0 && idx[1] != b1 {
			return first, k
		}
	}
	tb.Fatal("no colliding key found")
	return first, first
}

// reportFuzzSeeds builds the adversarial seed payloads shared by the
// inline FuzzDecode corpus and the committed on-disk one: two valid
// payloads (so mutations start from parseable state) and one payload
// per reject class, each breaking exactly one rule.
func reportFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	stage := fuzzStage(tb)
	valid, err := Encode(1, stage, 2)
	if err != nil {
		tb.Fatal(err)
	}
	massOff := crptFixed + 4*stage.Arrays() + 12
	one := []byte{1}
	lo, hi := collidingKeys(tb, stage)
	p := sharedPrefix(lo, hi)
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	return map[string][]byte{
		"valid":            valid,
		"valid-two-arrays": handPayload(stage, 5, seedKey{0, lo, 0b11, []byte{2, 3}}),
		"truncated-header": valid[:12],
		"two-keys-one-bucket": handPayload(stage, 2,
			seedKey{0, lo, 0b01, one}, seedKey{p, hi, 0b01, one}),
		"mask-bit-out-of-range": handPayload(stage, 1, seedKey{0, lo, 0b100, one}),
		"unsorted-key": handPayload(stage, 2,
			seedKey{0, hi, 0b10, one}, seedKey{p, lo, 0b01, one}),
		"duplicate-key": handPayload(stage, 2,
			seedKey{0, lo, 0b01, one}, seedKey{flowkey.FiveTupleLen, lo, 0b10, one}),
		"counter-overflow": handPayload(stage, 1, seedKey{0, lo, 0b01, overflow}),
		"mass-mismatch":    patch(valid, massOff, valid[massOff]+1),
		"version-2":        patch(valid, 4, 2),
	}
}

// TestReportFuzzSeedsClassified pins each seed to its intended decoder
// verdict — accepted, or rejected for the rule it was built to break —
// so a format change that silently legalizes an adversarial seed, or
// rejects it for another reason, fails loudly.
func TestReportFuzzSeedsClassified(t *testing.T) {
	seeds := reportFuzzSeeds(t)
	for name, want := range map[string]string{
		"valid":                 "",
		"valid-two-arrays":      "",
		"truncated-header":      "truncated header",
		"two-keys-one-bucket":   "another key holds",
		"mask-bit-out-of-range": "mask names an array",
		"unsorted-key":          "does not sort above",
		"duplicate-key":         "duplicates its predecessor",
		"counter-overflow":      "overflows 64 bits",
		"mass-mismatch":         "mass mismatch",
		"version-2":             "unsupported version 2",
	} {
		_, _, err := Decode(1, seeds[name], fuzzMaxBuckets, flowkey.FiveTupleFromBytes)
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: decode error %v, want one containing %q", name, err, want)
		}
	}
	if len(seeds) != 10 {
		t.Errorf("%d seeds, the table above classifies 10", len(seeds))
	}
}

// TestRegenReportFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzDecode from reportFuzzSeeds. It is a generator,
// not a check: it only runs when REGEN_FUZZ_CORPUS=1 is set, so the
// committed corpus stays stable unless regenerated deliberately.
func TestRegenReportFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "1" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz/FuzzDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, payload := range reportFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(payload)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

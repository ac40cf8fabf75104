package oracle

import (
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/trace"
)

// Report-pipeline differential gates: the epoch-report path at a
// shrink above 1 (seal a shrunk stage, encode, decode at the collector)
// must keep the decoded tables inside the harness CI bounds in every
// traffic regime while spending at least 5× fewer bytes than full
// snapshots, and the channel must stay lossless epoch after epoch.

// reportShrink is the stage shrink factor under test; at the harness
// geometry (l = 512) it is the smallest power of two that clears the
// 5× byte floor with margin.
const reportShrink = 8

// cocoCompressedReportImpl replays each trial into a fat sketch, then
// ships it through the report codec at reportShrink — seal, encode,
// decode — and answers queries from the *decoded* stage, exactly what
// a collector serves. Byte totals accumulate into rawBytes/wireBytes
// across trials.
func cocoCompressedReportImpl(rawBytes, wireBytes *uint64) Impl {
	return Impl{
		Name: "coco-compressed-report",
		New: func(seed uint64) Instance {
			cfg := cocoCfg(seed)
			codec, err := report.New[flowkey.FiveTuple](cfg, reportShrink)
			if err != nil {
				panic(err)
			}
			s := core.NewBasic[flowkey.FiveTuple](cfg)
			var table map[flowkey.FiveTuple]uint64
			return &funcInstance{
				insert: s.Insert,
				close: func() {
					stage, err := codec.Seal(s)
					if err != nil {
						panic(err)
					}
					blob, err := codec.Encode(0, stage)
					if err != nil {
						panic(err)
					}
					decoded, _, err := report.Decode(0, blob, cfg.Arrays*cfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
					if err != nil {
						panic(err)
					}
					*rawBytes += uint64(s.MarshaledSize())
					*wireBytes += uint64(len(blob))
					table = decoded.Decode()
				},
				table: func() map[flowkey.FiveTuple]uint64 { return table },
			}
		},
		// The decoded stage is an l/shrink-bucket CocoSketch: still
		// unbiased for every partial key (stage compression collapses
		// bucket pairs with the same stochastic rule as insertion), with
		// the subset-sum variance ceiling of the *small* geometry. The
		// factor 2 covers the collapse rounds of compression itself, the
		// same allowance TestMetamorphicMergeUnbiased grants a merge.
		Contract: Contract{
			Unbiased: true,
			VarBound: func(o *Oracle, _ flowkey.Mask, f uint64) float64 {
				return 2 * SubsetVarianceBound(f, o.Total(), harnessBuckets/reportShrink)
			},
			VarCeiling: func(o *Oracle, _ flowkey.Mask, f uint64) float64 {
				return 2 * SubsetVarianceBound(f, o.Total(), harnessBuckets/reportShrink)
			},
			ConservesMass: true,
		},
	}
}

// TestReportCompressedPipelineMatrix runs the compressed report path
// against the exact oracle over every regime: per-regime, the decoded
// tables must satisfy the small-stage contract (unbiased, bounded
// variance, exact mass) AND the wire bytes must undercut full
// snapshots by at least 5×.
func TestReportCompressedPipelineMatrix(t *testing.T) {
	cfg := matrixConfig(t)
	for _, reg := range Regimes() {
		var raw, wire uint64
		vs := RunMatrix([]Impl{cocoCompressedReportImpl(&raw, &wire)}, []Regime{reg}, cfg)
		for _, v := range vs {
			t.Errorf("%s", v)
		}
		if wire == 0 {
			t.Fatalf("%s: no report bytes measured", reg.Name)
		}
		if raw < 5*wire {
			t.Errorf("%s: compression ratio %.2f× below the 5× floor (%d raw, %d wire)",
				reg.Name, float64(raw)/float64(wire), raw, wire)
		}
	}
}

// TestReportLosslessAcrossEpochs replays a multi-epoch stream (fresh
// sketch per epoch, persistent flow population) through the report
// channel at reportShrink and checks the collector's decoded stages are
// bit-identical to the agent-side sealed stages in every epoch —
// compression saves bytes by sending each key once, never by
// approximating the delivered stage.
func TestReportLosslessAcrossEpochs(t *testing.T) {
	cfg := harnessCoreCfg(31)
	codec, err := report.New[flowkey.FiveTuple](cfg, reportShrink)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 5
	tr := trace.CAIDALike(epochs*8_000, 0xE11A)
	per := len(tr.Packets) / epochs
	for e := 0; e < epochs; e++ {
		s := core.NewBasic[flowkey.FiveTuple](cfg)
		for _, p := range tr.Packets[e*per : (e+1)*per] {
			s.Insert(p.Key, 1)
		}
		stage, err := codec.Seal(s)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := codec.Encode(uint32(e), stage)
		if err != nil {
			t.Fatal(err)
		}
		decoded, _, err := report.Decode(uint32(e), blob, cfg.Arrays*cfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if !decoded.Equal(stage) {
			t.Fatalf("epoch %d: decoded stage differs from sealed stage", e)
		}
	}
}

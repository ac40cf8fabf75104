package experiments

import (
	"fmt"
	"sort"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/trace"
)

// Report-compression experiment: the bandwidth/accuracy tradeoff of
// the two-stage epoch reports (DESIGN.md §14). Each row ships the same
// multi-epoch workload through the report codec at one shrink factor —
// shrink 1 is the whole epoch sketch — and measures wire bytes against
// the full-snapshot baseline (core's MarshaledSize) plus the decoded
// tables' heavy-hitter error against exact per-epoch counts.

func init() {
	register("ext-report", runExtReport)
}

// reportEpochs splits the experiment trace into this many epochs.
const reportEpochs = 4

// runExtReport replays the trace through an agent-side fat sketch per
// epoch, seals and encodes each epoch at the shrink under test, decodes
// it as a collector would, and scores bytes and accuracy. A decoded
// stage that is not the sealed stage bit for bit is an error: the
// channel is lossless at every shrink, so only the shrink costs
// accuracy.
func runExtReport(cfg RunConfig) (*TableResult, error) {
	tr := trace.CAIDALike(cfg.packets(), cfg.Seed)
	sketchCfg := core.Config{Arrays: 2, BucketsPerArray: 512, Seed: cfg.Seed + 17}

	out := &TableResult{
		ID:      "ext-report",
		Title:   "Epoch report compression: wire bytes and decoded accuracy vs shrink",
		Columns: []string{"stage", "wire KB", "raw KB", "ratio", "HH ARE"},
		Notes: []string{
			fmt.Sprintf("%d epochs of %d packets; raw = full-snapshot bytes (every bucket's key and 8-byte counter); HH ARE = mean relative error of each epoch's top-16 exact flows in the decoded table", reportEpochs, len(tr.Packets)/reportEpochs),
			"shrinking the shipped stage to l/k buckets trades the subset-sum variance ceiling f·V/l up to f·V/(l/k) for the byte ratio (paper Thm 2 / Lemma 5); every decoded stage is the sealed stage bit for bit",
		},
	}

	per := len(tr.Packets) / reportEpochs
	for _, shrink := range []int{1, 2, 4, 8, 16} {
		codec, err := report.New[flowkey.FiveTuple](sketchCfg, shrink)
		if err != nil {
			return nil, err
		}
		var wire, raw uint64
		var areSum float64
		var areN int
		for e := 0; e < reportEpochs; e++ {
			fat := core.NewBasic[flowkey.FiveTuple](sketchCfg)
			exact := make(map[flowkey.FiveTuple]uint64, per)
			for _, p := range tr.Packets[e*per : (e+1)*per] {
				fat.Insert(p.Key, 1)
				exact[p.Key]++
			}
			stage, err := codec.Seal(fat)
			if err != nil {
				return nil, err
			}
			blob, err := codec.Encode(uint32(e), stage)
			if err != nil {
				return nil, err
			}
			decoded, _, err := report.Decode(uint32(e), blob, sketchCfg.Arrays*sketchCfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
			if err != nil {
				return nil, err
			}
			if !decoded.Equal(stage) {
				return nil, fmt.Errorf("shrink %d epoch %d: decoded stage differs from the sealed stage", shrink, e)
			}
			wire += uint64(len(blob))
			raw += uint64(fat.MarshaledSize())

			table := decoded.Decode()
			for _, k := range topKeys(exact, 16) {
				truth := float64(exact[k])
				est := float64(table[k])
				if est > truth {
					areSum += (est - truth) / truth
				} else {
					areSum += (truth - est) / truth
				}
				areN++
			}
		}
		out.AddRow(fmt.Sprintf("shrink-%d", shrink),
			float64(wire)/1024,
			float64(raw)/1024,
			float64(raw)/float64(wire),
			areSum/float64(areN))
	}
	return out, nil
}

// topKeys returns the n heaviest keys of an exact count table.
func topKeys(exact map[flowkey.FiveTuple]uint64, n int) []flowkey.FiveTuple {
	keys := make([]flowkey.FiveTuple, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if exact[keys[i]] != exact[keys[j]] {
			return exact[keys[i]] > exact[keys[j]]
		}
		return keys[i].String() < keys[j].String()
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// Package oracle is the repository's single source of ground truth and
// its differential statistical harness. An Oracle replays a trace
// exactly — full-key counts, arbitrary partial-key counts, top-k,
// entropy, hierarchical heavy hitters and super-spreaders — and the
// harness (see harness.go) runs every sketch implementation against it
// over seeded deterministic trace regimes, asserting each algorithm's
// published guarantee with confidence intervals derived from the
// paper's variance bounds (Theorems 1–3) instead of hand-picked
// tolerances.
//
// Everything an Oracle reports is exact: it is a map-and-sum replay of
// the trace with no sampling and no sketching, so any disagreement
// between an Oracle and a sketch is the sketch's error by definition.
package oracle

import (
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/sketch"
	"cocosketch/internal/tasks"
	"cocosketch/internal/trace"
)

// Oracle holds the exact ground truth of one replayed stream. Build one
// per (trace, weighting) pair with FromTrace or FromCounts; all methods
// are read-only after construction and safe for concurrent use except
// the lazily-cached PartialCounts/F2 (use Precompute first if sharing
// one Oracle across goroutines).
type Oracle struct {
	name  string
	total uint64
	full  map[flowkey.FiveTuple]uint64

	// Lazy per-mask caches. partial[m] is the exact partial-key table
	// under mask m; f2[m] is the exact second moment Σ f² of that
	// table, the quantity Count-Sketch-style variance bounds are
	// stated in.
	partial map[flowkey.Mask]map[flowkey.FiveTuple]uint64
	f2      map[flowkey.Mask]float64
}

// FromTrace replays a trace with unit weights (packet counting, the
// paper's CPU experiments) into an exact Oracle.
func FromTrace(tr *trace.Trace) *Oracle {
	counts := make(map[flowkey.FiveTuple]uint64, len(tr.Packets)/8+1)
	for i := range tr.Packets {
		counts[tr.Packets[i].Key]++
	}
	return FromCounts(tr.Name, counts)
}

// FromTraceBytes replays a trace weighting each packet by its wire
// size (the paper's byte-count metric).
func FromTraceBytes(tr *trace.Trace) *Oracle {
	counts := make(map[flowkey.FiveTuple]uint64, len(tr.Packets)/8+1)
	for i := range tr.Packets {
		counts[tr.Packets[i].Key] += uint64(tr.Packets[i].Size)
	}
	return FromCounts(tr.Name+"/bytes", counts)
}

// FromCounts wraps an already-exact full-key table as an Oracle.
func FromCounts(name string, counts map[flowkey.FiveTuple]uint64) *Oracle {
	o := &Oracle{
		name:    name,
		full:    counts,
		partial: make(map[flowkey.Mask]map[flowkey.FiveTuple]uint64),
		f2:      make(map[flowkey.Mask]float64),
	}
	for _, v := range counts {
		o.total += v
	}
	return o
}

// Name labels the Oracle's stream in harness reports.
func (o *Oracle) Name() string { return o.name }

// Total returns the exact total stream weight V = Σ f(e).
func (o *Oracle) Total() uint64 { return o.total }

// Flows returns the number of distinct full-key flows.
func (o *Oracle) Flows() int { return len(o.full) }

// FullCounts returns the exact full-key table. Callers must not
// mutate it.
func (o *Oracle) FullCounts() map[flowkey.FiveTuple]uint64 { return o.full }

// PartialCounts returns the exact table of the partial key selected by
// mask m — Definition 1's g(·) applied to the exact full-key table.
// The result is cached; callers must not mutate it.
func (o *Oracle) PartialCounts(m flowkey.Mask) map[flowkey.FiveTuple]uint64 {
	if t, ok := o.partial[m]; ok {
		return t
	}
	t := query.ByMask(o.full, m)
	o.partial[m] = t
	return t
}

// Count returns the exact size of one partial-key flow (k is masked
// before lookup, so any representative of the aggregate works).
func (o *Oracle) Count(m flowkey.Mask, k flowkey.FiveTuple) uint64 {
	return o.PartialCounts(m)[m.Apply(k)]
}

// F2 returns the exact second moment Σ f(e_P)² of the partial-key
// distribution under mask m — the term in which Count-Sketch/UnivMon
// variance guarantees are stated (Var ≤ F2/width per row).
func (o *Oracle) F2(m flowkey.Mask) float64 {
	if v, ok := o.f2[m]; ok {
		return v
	}
	var sum float64
	for _, f := range o.PartialCounts(m) {
		sum += float64(f) * float64(f)
	}
	o.f2[m] = sum
	return sum
}

// Precompute materializes the partial table and F2 of every mask, after
// which the Oracle is safe for concurrent readers.
func (o *Oracle) Precompute(masks []flowkey.Mask) {
	for _, m := range masks {
		o.PartialCounts(m)
		o.F2(m)
	}
}

// TopK returns the exact k largest partial-key flows under mask m,
// ties broken deterministically (sketch.TopK ordering).
func (o *Oracle) TopK(m flowkey.Mask, k int) []sketch.Entry[flowkey.FiveTuple] {
	return sketch.TopK(o.PartialCounts(m), k)
}

// HeavyHitters returns the exact partial-key flows of size at least
// fraction·V under mask m (the paper's §7.1 threshold rule).
func (o *Oracle) HeavyHitters(m flowkey.Mask, fraction float64) map[flowkey.FiveTuple]uint64 {
	return tasks.HeavyHitters(o.PartialCounts(m), tasks.Threshold(o.total, fraction))
}

// Entropy returns the exact Shannon entropy (bits) of the partial-key
// size distribution under mask m.
func (o *Oracle) Entropy(m flowkey.Mask) float64 {
	return tasks.Entropy(o.PartialCounts(m))
}

// SrcIPCounts projects the exact table onto source addresses — the
// 1-d hierarchy root used by the HHH reference answers.
func (o *Oracle) SrcIPCounts() map[flowkey.IPv4]uint64 {
	out := make(map[flowkey.IPv4]uint64)
	for k, v := range o.full {
		out[flowkey.IPv4(k.SrcIP)] += v
	}
	return out
}

// IPPairCounts projects the exact table onto (src, dst) pairs — the
// 2-d HHH and super-spreader full key.
func (o *Oracle) IPPairCounts() map[flowkey.IPPair]uint64 {
	out := make(map[flowkey.IPPair]uint64)
	for k, v := range o.full {
		out[flowkey.IPPair{Src: flowkey.IPv4(k.SrcIP), Dst: flowkey.IPv4(k.DstIP)}] += v
	}
	return out
}

// HHH1D returns the exact 1-d hierarchical heavy hitters of the source
// address bit hierarchy at the given threshold fraction.
func (o *Oracle) HHH1D(fraction float64) map[tasks.Node1D]uint64 {
	levels := tasks.Levels1DFromCounts(o.SrcIPCounts())
	return tasks.ExtractHHH1D(levels, tasks.Threshold(o.total, fraction))
}

// SuperSpreaders returns the exact sources contacting at least
// threshold distinct destinations.
func (o *Oracle) SuperSpreaders(threshold uint64) map[flowkey.IPv4]uint64 {
	return tasks.SuperSpreaders(o.IPPairCounts(), threshold)
}

// TrackedKeys picks a deterministic spread of partial keys under mask m
// for per-key assertions: the heaviest flows, a median flow, and a tail
// flow. At most n keys are returned (fewer when the table is small).
func (o *Oracle) TrackedKeys(m flowkey.Mask, n int) []flowkey.FiveTuple {
	entries := sketch.Entries(o.PartialCounts(m))
	if len(entries) == 0 || n <= 0 {
		return nil
	}
	heads := n - 2
	if heads < 1 {
		heads = 1
	}
	var out []flowkey.FiveTuple
	for i := 0; i < heads && i < len(entries); i++ {
		out = append(out, entries[i].Key)
	}
	if len(entries) > heads {
		out = append(out, entries[len(entries)/2].Key)
	}
	if len(entries) > heads+1 {
		// Tail flow: the 90th-percentile rank, still large enough that
		// a relative check is meaningful.
		out = append(out, entries[len(entries)*9/10].Key)
	}
	return out
}

// Masks returns the partial keys the differential harness measures:
// the full 5-tuple plus the paper's evaluation set of field subsets.
func Masks() []flowkey.Mask {
	return []flowkey.Mask{
		flowkey.MaskAll(),
		flowkey.MaskFields(flowkey.FieldSrcIP),
		flowkey.MaskFields(flowkey.FieldSrcIP, flowkey.FieldDstIP),
		flowkey.MaskFields(flowkey.FieldDstIP, flowkey.FieldDstPort),
	}
}

package experiments

import (
	"cocosketch/internal/baselines/countmin"
	"cocosketch/internal/baselines/countsketch"
	"cocosketch/internal/baselines/elastic"
	"cocosketch/internal/baselines/spacesaving"
	"cocosketch/internal/baselines/univmon"
	"cocosketch/internal/baselines/uss"
	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/sketch"
)

// Instance is one configured measurement system processing a packet
// stream and answering the configured partial-key queries.
type Instance interface {
	Insert(key flowkey.FiveTuple, w uint64)
	// Tables returns one estimated flow table per configured mask.
	Tables() []map[flowkey.FiveTuple]uint64
}

// System is a named factory: masks are the partial keys to measure,
// memoryBytes the *total* data-plane budget (single-sketch systems use
// it for their one sketch; per-key systems split it).
type System struct {
	Name string
	New  func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance
}

// batchSketch is satisfied by sketches with a batched unit-weight
// insert (the CocoSketch variants; see core.InsertBatchUnit).
type batchSketch interface {
	InsertBatchUnit(keys []flowkey.FiveTuple)
}

// BatchInstance is an Instance with a batched unit-weight insert. The
// throughput experiments feed bursts through it so the Fig. 14/15
// reproductions exercise the same hot path as the OVS pipeline.
type BatchInstance interface {
	Instance
	InsertBatchUnit(keys []flowkey.FiveTuple)
}

// aggInstance runs ONE full-key sketch and answers every mask by
// aggregation — CocoSketch's and USS's mode of operation.
type aggInstance struct {
	sketch sketch.Decoder[flowkey.FiveTuple]
	masks  []flowkey.Mask
}

func (a *aggInstance) Insert(key flowkey.FiveTuple, w uint64) { a.sketch.Insert(key, w) }

// InsertBatchUnit feeds the sketch's batched path when it has one and
// falls back to per-packet inserts otherwise.
func (a *aggInstance) InsertBatchUnit(keys []flowkey.FiveTuple) {
	if bs, ok := a.sketch.(batchSketch); ok {
		bs.InsertBatchUnit(keys)
		return
	}
	for _, k := range keys {
		a.sketch.Insert(k, 1)
	}
}

func (a *aggInstance) Tables() []map[flowkey.FiveTuple]uint64 {
	full := a.sketch.Decode()
	out := make([]map[flowkey.FiveTuple]uint64, len(a.masks))
	for i, m := range a.masks {
		out[i] = query.ByMask(full, m)
	}
	return out
}

// perKeyInstance runs one sketch per mask, splitting the memory budget
// evenly — how single-key sketches must support multiple keys.
type perKeyInstance struct {
	sketches []sketch.Decoder[flowkey.FiveTuple]
	masks    []flowkey.Mask
}

func (p *perKeyInstance) Insert(key flowkey.FiveTuple, w uint64) {
	for i, m := range p.masks {
		p.sketches[i].Insert(m.Apply(key), w)
	}
}

func (p *perKeyInstance) Tables() []map[flowkey.FiveTuple]uint64 {
	out := make([]map[flowkey.FiveTuple]uint64, len(p.sketches))
	for i, s := range p.sketches {
		out[i] = s.Decode()
	}
	return out
}

func newPerKey(masks []flowkey.Mask, memoryBytes int, build func(mem int, seed uint64) sketch.Decoder[flowkey.FiveTuple], seed uint64) Instance {
	per := memoryBytes / len(masks)
	inst := &perKeyInstance{masks: masks}
	for i := range masks {
		inst.sketches = append(inst.sketches, build(per, seed+uint64(i)*1009))
	}
	return inst
}

// CocoSystem is the paper's system (basic variant, d arrays).
func CocoSystem(d int) System {
	return System{
		Name: "Ours",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return &aggInstance{
				sketch: core.NewBasicForMemory[flowkey.FiveTuple](d, memoryBytes, seed),
				masks:  masks,
			}
		},
	}
}

// HardwareCocoSystem is the hardware-friendly variant with the given
// divider ("exact" models FPGA, rmt.ApproxDivider models P4).
func HardwareCocoSystem(d int, name string, divider core.Divider) System {
	return System{
		Name: name,
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			s := core.NewHardwareForMemory[flowkey.FiveTuple](d, memoryBytes, seed)
			if divider != nil {
				s.SetDivider(divider)
			}
			return &aggInstance{sketch: s, masks: masks}
		},
	}
}

// USSSystem is accelerated Unbiased SpaceSaving over the full key.
func USSSystem() System {
	return System{
		Name: "USS",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return &aggInstance{
				sketch: uss.NewAcceleratedForMemory[flowkey.FiveTuple](memoryBytes, seed),
				masks:  masks,
			}
		},
	}
}

// SSSystem is SpaceSaving, one instance per key.
func SSSystem() System {
	return System{
		Name: "SS",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return newPerKey(masks, memoryBytes, func(mem int, seed uint64) sketch.Decoder[flowkey.FiveTuple] {
				return spacesaving.NewForMemory[flowkey.FiveTuple](mem, seed)
			}, seed)
		},
	}
}

// CMHeapSystem is Count-Min plus heap, one instance per key.
func CMHeapSystem() System {
	return System{
		Name: "CM-Heap",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return newPerKey(masks, memoryBytes, func(mem int, seed uint64) sketch.Decoder[flowkey.FiveTuple] {
				return countmin.NewForMemory[flowkey.FiveTuple](mem, seed)
			}, seed)
		},
	}
}

// CHeapSystem is Count sketch plus heap, one instance per key.
func CHeapSystem() System {
	return System{
		Name: "C-Heap",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return newPerKey(masks, memoryBytes, func(mem int, seed uint64) sketch.Decoder[flowkey.FiveTuple] {
				return countsketch.NewForMemory[flowkey.FiveTuple](mem, seed)
			}, seed)
		},
	}
}

// ElasticSystem is the software Elastic sketch, one instance per key.
func ElasticSystem() System {
	return System{
		Name: "Elastic",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return newPerKey(masks, memoryBytes, func(mem int, seed uint64) sketch.Decoder[flowkey.FiveTuple] {
				return elastic.NewForMemory[flowkey.FiveTuple](mem, seed)
			}, seed)
		},
	}
}

// UnivMonSystem is UnivMon, one instance per key.
func UnivMonSystem() System {
	return System{
		Name: "UnivMon",
		New: func(masks []flowkey.Mask, memoryBytes int, seed uint64) Instance {
			return newPerKey(masks, memoryBytes, func(mem int, seed uint64) sketch.Decoder[flowkey.FiveTuple] {
				return univmon.NewForMemory[flowkey.FiveTuple](mem, seed)
			}, seed)
		},
	}
}

// HeavyHitterSystems is the baseline lineup of Figures 8, 9 and 14.
func HeavyHitterSystems() []System {
	return []System{
		CocoSystem(core.DefaultArrays),
		SSSystem(),
		USSSystem(),
		CHeapSystem(),
		CMHeapSystem(),
		ElasticSystem(),
		UnivMonSystem(),
	}
}

// HeavyChangeSystems is the lineup of Figures 10 and 13(b) (SS and USS
// are omitted for heavy change, as in the paper).
func HeavyChangeSystems() []System {
	return []System{
		CocoSystem(core.DefaultArrays),
		CHeapSystem(),
		CMHeapSystem(),
		ElasticSystem(),
		UnivMonSystem(),
	}
}

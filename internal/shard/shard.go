// Package shard provides the multi-core ingest pipeline: N receive
// queues, each a worker owning a private CocoSketch behind a
// single-producer single-consumer ring, whose sketches are merged
// (core.Merge) when the run ends — the paper's OVS scaling architecture
// (§6.1: one sketch per dataplane thread, merged at decode).
//
// One pipeline takes three feeds, which differ only in where the keyed
// records come from (replay.go):
//
//	feed (1 goroutine per reader)            worker q (1 per queue)
//	┌──────────────────────────────┐         ┌──────────────────────────┐
//	│ ReplayQueues: one pcap       │ ring q  │ TryPopN (64-record burst)│
//	│   reader per queue           │ ──────▶ │ keys → InsertBatch into  │
//	│ ReplayPCAP: one pcap reader  │  SPSC   │ private sketch → release │
//	│   steering N queues          │         └──────────────────────────┘
//	│ ReplayPackets: in-memory     │
//	│   packets steering N queues  │
//	└──────────────────────────────┘
//	     at most PoolSlots records in flight per queue; the feed parks
//	     on a full bound. The run ends by merging the N sketches.
//
// Determinism: every worker consumes its ring in FIFO order, so its
// sketch state is a pure function of the input order and the RSS
// split. One queue reproduces the sequential sketch bit for bit, and
// the three feeds of one capture build the same N-queue sketch
// (replay_test.go).
package shard

import (
	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
)

// Sketch is the contract a per-queue sketch must satisfy: batched
// inserts for the ring drain path, and Merge so N queue sketches fold
// into one when the run ends. Both core variants satisfy it (S is the
// sketch's own pointer type, e.g. *core.Basic[flowkey.FiveTuple]).
type Sketch[S any] interface {
	InsertBatch(keys []flowkey.FiveTuple, ws []uint64)
	InsertBatchUnit(keys []flowkey.FiveTuple)
	Merge(other S) error
}

// DefaultBurst is the read, steer and drain burst of every ring: 64
// records, the DPDK rx_burst convention used throughout the
// repository.
const DefaultBurst = 64

// rngSalt decorrelates per-queue replacement draws; index 0 maps to
// zero so queue 0 keeps the sequential RNG sequence.
func rngSalt(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// NewBasicFactory returns the per-queue sketch constructor of
// ReplayPCAPBasic: queue 0 keeps the sequential sketch state, queues
// > 0 get decorrelated replacement RNGs, and all queues flush update
// outcomes into one shared "core."-prefixed telemetry group (no-op on
// a nil registry). Exported so every replay caller (agents,
// experiments, benchmarks) builds sketch sets that merge
// bit-identically with one another.
func NewBasicFactory(sketchCfg core.Config, reg *telemetry.Registry) func(i int) *core.Basic[flowkey.FiveTuple] {
	m := telemetry.NewSketchMetrics(reg, "core")
	return func(i int) *core.Basic[flowkey.FiveTuple] {
		s := core.NewBasic[flowkey.FiveTuple](sketchCfg)
		if i > 0 {
			s.Reseed(sketchCfg.Seed ^ rngSalt(i))
		}
		return s.SetTelemetry(m)
	}
}

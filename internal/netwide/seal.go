package netwide

import (
	"errors"
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// ErrNoEpoch reports a SealEpochInto for an epoch no agent has reported
// yet — there is nothing to seal.
var ErrNoEpoch = errors.New("netwide: epoch has no shards")

// EpochSink consumes sealed network-wide epoch aggregates. The
// continuous query-serving tier's window.Ring is the canonical
// implementation; the interface lives here (consumer side) so netwide
// does not depend on internal/window.
//
// Seal receives a PRIVATE sketch: the sink owns it outright and may
// retain it forever without racing collector-internal state.
type EpochSink interface {
	// Seal hands the sink one epoch's network-wide aggregate.
	Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error
}

// SealEpochInto folds the epoch's per-agent shards canonically (the
// same fold Epoch serves queries from) and seals the fresh aggregate,
// which nothing else references, into sink. Returns ErrNoEpoch when no
// agent has reported the epoch, or the sink's own error
// (window.ErrOrder for a re-seal, core.ErrIncompatible for a geometry
// mismatch) otherwise.
//
// Because the fold is a pure function of the shard set, sealing the
// same epoch from two collectors that received the same reports, in
// any order and with any retried duplicates, yields bit-identical ring
// contents (TestEpochIndependentOfArrivalOrder pins this).
func (c *Collector) SealEpochInto(sink EpochSink, epoch uint32) error {
	c.mu.Lock()
	agg, ok := c.fold(epoch)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w (epoch %d)", ErrNoEpoch, epoch)
	}
	return sink.Seal(uint64(epoch), agg)
}

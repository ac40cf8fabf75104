package netwide

import (
	"errors"
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// ErrNoEpoch reports a SealEpochInto for an epoch the collector does
// not hold: no agent has reported it yet, or it is sealed already —
// there is nothing to seal.
var ErrNoEpoch = errors.New("netwide: epoch has no shards")

// EpochSink consumes sealed network-wide epoch aggregates. The
// continuous query-serving tier's window.Ring is the canonical
// implementation; the interface lives here (consumer side) so netwide
// does not depend on internal/window.
//
// Seal receives a PRIVATE sketch, once per epoch, in increasing epoch
// order. Once Seal returns nil the sink is the epoch's only owner: the
// collector drops the epoch's shards and serves nothing of it.
type EpochSink interface {
	// Seal hands the sink one epoch's network-wide aggregate.
	Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error
}

// SealEpochInto folds the epoch's per-agent shards canonically and
// seals the fresh aggregate, which nothing else references, into sink.
// Once the sink accepts it, the collector drops the shards of the epoch
// and of every epoch below it and takes no more reports for any of
// them: a later one is late (see ingest). The collector thus holds
// only unsealed epochs. Returns ErrNoEpoch when the collector does not
// hold the epoch, or the sink's own error (window.ErrOrder for a
// re-seal) otherwise; a seal the sink rejects changes nothing.
//
// Because the fold is a pure function of the shard set, sealing the
// same epoch from two collectors that received the same reports, in
// any order and with any retried duplicates, yields bit-identical ring
// contents (TestEpochIndependentOfArrivalOrder pins this).
func (c *Collector) SealEpochInto(sink EpochSink, epoch uint32) error {
	_, err := c.seal(sink, epoch)
	return err
}

// SealNext seals the oldest epoch the collector holds into sink, as
// SealEpochInto does, and returns it with the number of agents folded
// into it; ok is false, and nothing is sealed, while no epoch is held.
// Called once per serving interval from one goroutine, it is the rule
// cococollector serves by. Every held epoch is past the last one
// sealed, so it seals the oldest epoch at or past the next one a server
// expects, not that epoch itself: a coalesced spool report arrives
// under its range's high epoch, and the lower epochs it covers never
// arrive. The sink sees increasing epochs, with gaps where reports
// were coalesced.
func (c *Collector) SealNext(sink EpochSink) (epoch uint32, agents int, ok bool, err error) {
	c.mu.Lock()
	for e := range c.shards {
		if !ok || e < epoch {
			epoch, ok = e, true
		}
	}
	c.mu.Unlock()
	if !ok {
		return 0, 0, false, nil
	}
	agents, err = c.seal(sink, epoch)
	return epoch, agents, true, err
}

// seal is SealEpochInto; it also returns the number of shards folded.
// The fold is sealed outside c.mu, so reports keep arriving while the
// sink works; one that arrives for the epoch meanwhile is not in the
// sealed aggregate, and is counted late when the shards are dropped,
// as are the shards of any epoch below it.
func (c *Collector) seal(sink EpochSink, epoch uint32) (int, error) {
	c.mu.Lock()
	agg, folded := c.fold(epoch)
	c.mu.Unlock()
	if folded == 0 {
		return 0, fmt.Errorf("%w (epoch %d)", ErrNoEpoch, epoch)
	}
	if err := sink.Seal(uint64(epoch), agg); err != nil {
		return folded, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	late := 0
	for e, shards := range c.shards {
		if e > epoch {
			continue
		}
		late += len(shards)
		if e == epoch {
			late -= folded
		}
		delete(c.shards, e)
	}
	c.tel.lateReports.Add(uint64(late))
	c.tel.epochsTracked.Set(int64(len(c.shards)))
	c.next = max(c.next, uint64(epoch)+1)
	return folded, nil
}

package netwide

import (
	"fmt"
	"net"
	"slices"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
)

// DefaultSpoolLimit bounds the agent-side snapshot spool: at most this
// many undelivered epoch sketches are held before the overflow policy
// (coalesce or drop-oldest) kicks in.
const DefaultSpoolLimit = 8

// SpoolPolicy selects what a full spool does with one more epoch.
type SpoolPolicy int

const (
	// SpoolCoalesce merges the two newest spool entries with
	// core.Merge: memory stays bounded, no observation is lost, and
	// estimates over the union stay unbiased — the epochs just coarsen
	// (the merged report spans an epoch range). The head of the spool
	// is never coalesced when the limit is at least 2, because a head
	// entry may already have been received by the collector with its
	// acknowledgement lost, and re-sending it unmodified is what makes
	// the retry idempotent.
	SpoolCoalesce SpoolPolicy = iota
	// SpoolDropOldest sheds the oldest spool entry, counting its
	// weight in "netwide.dropped_weight" — bounded loss, exact
	// accounting.
	SpoolDropOldest
)

// spoolEntry is one undelivered report: the stage sealed by the
// agent's codec and the contiguous epoch range it covers ([lo, hi],
// both inclusive; lo == hi until coalescing widens it).
type spoolEntry struct {
	lo, hi uint32
	stage  *core.Basic[flowkey.FiveTuple]
	// payload is the stage's encoded report, set by the first Flush
	// that tries to send it and reused by every retry; coalescing
	// another stage into this one clears it.
	payload []byte
	weight  uint64
	// rawBytes is what a full snapshot of the sealed epoch would have
	// cost on the wire — the numerator of the compression ratio.
	rawBytes uint64
}

// Agent is one vantage point: it measures local traffic into a basic
// CocoSketch and reports per epoch. Agents at different vantage points
// MUST share the same Config (geometry and seed) so the collector can
// merge their sketches; flows seen at multiple vantage points are
// counted once per observation, as in link-level measurement.
//
// An epoch ships one way: EndEpoch seals it into a bounded spool and
// Flush (or FlushWithRedial) delivers the spool, hardened for a
// collector that is slow, restarting or partitioned away: every report
// exchange runs under a write deadline (SetWriteTimeout), retries
// redial with capped jittered backoff (Backoff), and unacknowledged
// epochs stay in the spool, which coalesces instead of blocking the
// ingest path — see DESIGN.md §12 for the full fault model.
//
// Agent is not safe for concurrent use (one dataplane thread per
// agent, as elsewhere in this repository).
type Agent struct {
	id     uint16
	cfg    core.Config
	sketch *core.Basic[flowkey.FiveTuple]
	epoch  uint32
	tel    agentTel
	// sketchTel is re-installed on each epoch's fresh sketch.
	sketchTel *telemetry.SketchMetrics

	clock        Clock
	writeTimeout time.Duration
	backoff      *Backoff
	spool        []spoolEntry
	spoolLimit   int
	spoolPolicy  SpoolPolicy

	// codec seals and encodes every epoch.
	codec report.Codec[flowkey.FiveTuple]
}

// agentTel groups the agent-side counters (all nil-safe; nil without
// SetTelemetry).
type agentTel struct {
	// observed accumulates the total weight measured into epochs (one
	// per unit-weight packet, w for Observe(k, w), the absorbed
	// sketch's weight for Absorb).
	observed *telemetry.Counter
	// reportsSent counts successfully acknowledged reports;
	// reportBytes their on-the-wire payload bytes; reportRawBytes what
	// the same reports would have cost as MarshalBinary snapshots of
	// the fat sketch (the compression baseline); reportRatio the
	// per-report raw/wire ratio ×100; deliveredWeight the sketch weight
	// those reports carried.
	reportsSent     *telemetry.Counter
	reportBytes     *telemetry.Counter
	reportRawBytes  *telemetry.Counter
	reportRatio     *telemetry.Histogram
	deliveredWeight *telemetry.Counter
	// absorbs counts external sketches merged in (sharded ingest).
	absorbs *telemetry.Counter
	// reconnects counts redials performed by FlushWithRedial.
	reconnects *telemetry.Counter
	// spooledEpochs counts epochs sealed into the spool; spoolCoalesced
	// counts overflow merges; droppedWeight/droppedEpochs what the
	// drop-oldest policy shed. spoolDepth/spoolWeight gauge the spool.
	spooledEpochs  *telemetry.Counter
	spoolCoalesced *telemetry.Counter
	droppedWeight  *telemetry.Counter
	droppedEpochs  *telemetry.Counter
	spoolDepth     *telemetry.Gauge
	spoolWeight    *telemetry.Gauge
}

// SetTelemetry registers the agent's counters ("netwide."-prefixed)
// plus a sketch outcome group ("core."-prefixed) on r; a nil registry
// disables telemetry. Returns the agent for chaining.
//
// The counters form an exact conservation ledger, checked by the chaos
// suite: after EndEpoch (current sketch empty),
//
//	observed = delivered_weight + spool_weight + dropped_weight
//
// holds with equality — every observed unit of weight is either
// acknowledged by the collector, still spooled, or deliberately shed.
func (a *Agent) SetTelemetry(r *telemetry.Registry) *Agent {
	a.tel = agentTel{
		observed:        r.Counter("netwide.observed"),
		reportsSent:     r.Counter("netwide.reports_sent"),
		reportBytes:     r.Counter("netwide.report_bytes"),
		reportRawBytes:  r.Counter("netwide.report_raw_bytes"),
		reportRatio:     r.Histogram("netwide.report_ratio_x100"),
		deliveredWeight: r.Counter("netwide.delivered_weight"),
		absorbs:         r.Counter("netwide.absorbs"),
		reconnects:      r.Counter("netwide.reconnects"),
		spooledEpochs:   r.Counter("netwide.spooled_epochs"),
		spoolCoalesced:  r.Counter("netwide.spool_coalesced"),
		droppedWeight:   r.Counter("netwide.dropped_weight"),
		droppedEpochs:   r.Counter("netwide.dropped_epochs"),
		spoolDepth:      r.Gauge("netwide.spool_depth"),
		spoolWeight:     r.Gauge("netwide.spool_weight"),
	}
	a.sketchTel = telemetry.NewSketchMetrics(r, "core")
	a.sketch.SetTelemetry(a.sketchTel)
	return a
}

// NewAgent creates an agent with the shared sketch configuration, the
// shrink-1 report codec (the lossless stage), the system clock, the
// default backoff policy (seeded from the shared seed and the agent id,
// so co-failing agents jitter apart), no write timeout, and a
// DefaultSpoolLimit-entry coalescing spool.
func NewAgent(id uint16, cfg core.Config) *Agent {
	a := &Agent{
		id:         id,
		cfg:        cfg,
		sketch:     core.NewBasic[flowkey.FiveTuple](cfg),
		clock:      SystemClock,
		backoff:    NewBackoff(DefaultBackoffBase, DefaultBackoffMax, cfg.Seed^(uint64(id)+1)*0x9e3779b97f4a7c15),
		spoolLimit: DefaultSpoolLimit,
	}
	codec, err := report.New[flowkey.FiveTuple](cfg, 1)
	if err != nil {
		panic(fmt.Sprintf("netwide: NewAgent: %v", err))
	}
	return a.SetCodec(codec)
}

// SetCodec selects the one report codec that seals and encodes every
// epoch of this agent (NewAgent installs the shrink-1 codec). Call it
// at construction: it panics if any epoch is spooled, because those
// stages were sealed by the previous codec and a spool must not mix
// stage geometries, and if the codec cannot seal the agent's geometry,
// because no epoch could then be delivered. Every report names its
// shrink, so the collector needs no matching setting. Returns the
// agent for chaining.
func (a *Agent) SetCodec(c report.Codec[flowkey.FiveTuple]) *Agent {
	if len(a.spool) > 0 {
		panic("netwide: Agent.SetCodec with epochs spooled under the previous codec")
	}
	// Seal never mutates the sketch and fails on geometry alone, so
	// one trial seal covers every epoch this agent will seal.
	if _, err := c.Seal(a.sketch); err != nil {
		panic(fmt.Sprintf("netwide: Agent.SetCodec: %v", err))
	}
	a.codec = c
	return a
}

// seal converts the current epoch's fat sketch into its wire stage via
// the agent's codec.
func (a *Agent) seal() *core.Basic[flowkey.FiveTuple] {
	stage, err := a.codec.Seal(a.sketch)
	if err != nil {
		// SetCodec proved the codec seals this agent's geometry.
		panic(fmt.Sprintf("netwide: sealing epoch %d: %v", a.epoch, err))
	}
	return stage
}

// SetClock replaces the agent's time source (deadlines and backoff
// sleeps); the chaos suite installs faultnet's virtual clock here.
// Returns the agent for chaining.
func (a *Agent) SetClock(c Clock) *Agent {
	a.clock = c
	return a
}

// SetWriteTimeout bounds each report exchange (serialize, write, await
// ack): the connection deadline is armed writeTimeout from Now before
// every report and cleared after. Zero disables deadlines (the
// pre-hardening behavior: a stalled collector blocks the agent
// forever). Returns the agent for chaining.
func (a *Agent) SetWriteTimeout(d time.Duration) *Agent {
	a.writeTimeout = d
	return a
}

// SetBackoff replaces the redial backoff policy. Returns the agent for
// chaining.
func (a *Agent) SetBackoff(b *Backoff) *Agent {
	a.backoff = b
	return a
}

// SetSpool bounds the undelivered-epoch spool at limit entries with
// the given overflow policy. A limit of at least 2 is recommended with
// SpoolCoalesce so the possibly-transmitted head entry is never
// rewritten (see SpoolPolicy). Returns the agent for chaining.
func (a *Agent) SetSpool(limit int, policy SpoolPolicy) *Agent {
	a.spoolLimit = limit
	a.spoolPolicy = policy
	return a
}

// Observe records one packet of weight w.
func (a *Agent) Observe(key flowkey.FiveTuple, w uint64) {
	a.sketch.Insert(key, w)
	a.tel.observed.Add(w)
}

// Absorb merges an externally built sketch of the shared Config into
// the current epoch — the hand-off point for sharded ingest: a shard
// replay measures the epoch's traffic on N receive queues, and its
// merged sketch lands here before EndEpoch seals it for the collector.
func (a *Agent) Absorb(s *core.Basic[flowkey.FiveTuple]) error {
	if err := a.sketch.Merge(s); err != nil {
		return err
	}
	a.tel.absorbs.Inc()
	a.tel.observed.Add(s.SumValues())
	return nil
}

// Epoch returns the current epoch number.
func (a *Agent) Epoch() uint32 { return a.epoch }

// PendingEpochs returns how many undelivered reports sit in the spool.
func (a *Agent) PendingEpochs() int { return len(a.spool) }

// PendingWeight returns the total sketch weight waiting in the spool.
func (a *Agent) PendingWeight() uint64 {
	var w uint64
	for i := range a.spool {
		w += a.spool[i].weight
	}
	return w
}

// EndEpoch seals the current epoch's sketch into the spool and opens a
// fresh epoch. It never touches the network and never blocks, so the
// ingest path stays live while the collector is unreachable; call
// Flush (or FlushWithRedial) to attempt delivery. Overflow beyond the
// spool limit is resolved by the configured SpoolPolicy.
func (a *Agent) EndEpoch() {
	e := spoolEntry{
		lo:       a.epoch,
		hi:       a.epoch,
		weight:   a.sketch.SumValues(),
		rawBytes: uint64(a.sketch.MarshaledSize()),
	}
	e.stage = a.seal()
	a.epoch++
	a.sketch = core.NewBasic[flowkey.FiveTuple](a.cfg).SetTelemetry(a.sketchTel)
	a.spool = append(a.spool, e)
	a.tel.spooledEpochs.Inc()
	if a.spoolLimit > 0 && len(a.spool) > a.spoolLimit {
		a.shedOverflow()
	}
	a.updateSpoolTel()
}

// shedOverflow brings the spool back to its limit per the policy.
func (a *Agent) shedOverflow() {
	switch a.spoolPolicy {
	case SpoolDropOldest:
		head := a.spool[0]
		a.spool = slices.Delete(a.spool, 0, 1)
		a.tel.droppedWeight.Add(head.weight)
		a.tel.droppedEpochs.Add(uint64(head.hi-head.lo) + 1)
	default: // SpoolCoalesce
		// The head (index 0) is only touched when it is half of the
		// only pair (limit 1), preserving retry idempotency (see
		// SpoolPolicy).
		j := len(a.spool) - 1
		i := j - 1
		if err := a.spool[i].stage.Merge(a.spool[j].stage); err != nil {
			// Every stage was sealed by the agent's one codec from the
			// agent's one Config, so all share a geometry.
			panic(fmt.Sprintf("netwide: coalescing spooled epochs: %v", err))
		}
		a.spool[i].hi = a.spool[j].hi
		a.spool[i].payload = nil
		a.spool[i].weight += a.spool[j].weight
		// The merged range's snapshot baseline is one snapshot, not
		// two: keep the larger of the pair.
		if a.spool[j].rawBytes > a.spool[i].rawBytes {
			a.spool[i].rawBytes = a.spool[j].rawBytes
		}
		a.spool = a.spool[:j]
		a.tel.spoolCoalesced.Inc()
	}
}

// updateSpoolTel refreshes the spool gauges.
func (a *Agent) updateSpoolTel() {
	a.tel.spoolDepth.Set(int64(len(a.spool)))
	a.tel.spoolWeight.Set(int64(a.PendingWeight()))
}

// Flush delivers spooled reports oldest-first over conn, stopping at
// the first transport error (delivered entries are retired either
// way). A coalesced entry ships as one report under its range's high
// epoch. A payload is encoded from the spooled stage alone, at the
// first flush that tries to send it, and kept on the spool entry, so
// a retry after any failed exchange re-sends the identical payload
// without encoding it again, and the collector's duplicate detection
// makes it idempotent. Each exchange runs under the agent's write
// timeout. A nil return means the spool is empty.
func (a *Agent) Flush(conn net.Conn) error {
	for len(a.spool) > 0 {
		e := &a.spool[0]
		if e.payload == nil {
			blob, err := a.codec.Encode(e.hi, e.stage)
			if err != nil {
				return err
			}
			e.payload = blob
		}
		blob := e.payload
		if err := a.exchange(conn, Message{Type: MsgSketch, Epoch: e.hi, AgentID: a.id, Payload: blob}); err != nil {
			return err
		}
		a.tel.reportsSent.Inc()
		a.tel.reportBytes.Add(uint64(len(blob)))
		a.tel.reportRawBytes.Add(e.rawBytes)
		if len(blob) > 0 {
			a.tel.reportRatio.Observe(e.rawBytes * 100 / uint64(len(blob)))
		}
		a.tel.deliveredWeight.Add(e.weight)
		a.spool = slices.Delete(a.spool, 0, 1)
		a.updateSpoolTel()
	}
	return nil
}

// FlushWithRedial is Flush with the shared redial policy: on a
// transport error it closes the connection, sleeps the backoff delay
// (capped exponential with seeded jitter — see Backoff), redials and
// resumes flushing, up to attempts redials; failed dials consume an
// attempt and keep retrying, so a collector restart longer than one
// backoff step is survived. Each successful redial is counted in the
// "netwide.reconnects" telemetry counter. It returns the connection to
// use next (the last successfully dialed one) and the last error once
// attempts are exhausted; undelivered epochs stay spooled, and the
// collector's duplicate detection makes re-sending one idempotent.
func (a *Agent) FlushWithRedial(conn net.Conn, dial func() (net.Conn, error), attempts int) (net.Conn, error) {
	return a.withRedial(conn, dial, attempts, a.Flush)
}

// exchange runs one report round trip under the write timeout: write
// the message, await and validate the acknowledgement.
func (a *Agent) exchange(conn net.Conn, msg Message) error {
	if a.writeTimeout > 0 {
		if err := conn.SetDeadline(a.clock.Now().Add(a.writeTimeout)); err != nil {
			return fmt.Errorf("netwide: arming report deadline: %w", err)
		}
		defer conn.SetDeadline(time.Time{})
	}
	if err := WriteMessage(conn, msg); err != nil {
		return err
	}
	ack, err := ReadMessage(conn)
	if err != nil {
		return err
	}
	if ack.Type != MsgAck || ack.Epoch != msg.Epoch {
		return fmt.Errorf("netwide: unexpected ack (type %d, epoch %d)", ack.Type, ack.Epoch)
	}
	return nil
}

// withRedial runs op over conn, and on failure loops close → backoff
// sleep → redial → retry until op succeeds or attempts redials are
// spent. The returned conn is the live connection when err is nil and
// the last (closed or dead) one otherwise.
func (a *Agent) withRedial(conn net.Conn, dial func() (net.Conn, error), attempts int, op func(net.Conn) error) (net.Conn, error) {
	err := op(conn)
	for try := 0; err != nil && try < attempts; try++ {
		conn.Close()
		a.clock.Sleep(a.backoff.Delay(try))
		next, derr := dial()
		if derr != nil {
			err = fmt.Errorf("netwide: redial after %q: %w", err, derr)
			continue
		}
		conn = next
		a.tel.reconnects.Inc()
		err = op(conn)
	}
	return conn, err
}

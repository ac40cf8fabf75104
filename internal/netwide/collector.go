package netwide

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
)

// Collector receives per-epoch sketches from agents, holds each
// unsealed epoch's per-agent shards, and seals every epoch once, as one
// network-wide CocoSketch, into an EpochSink (SealEpochInto, SealNext)
// that answers its queries from then on. Safe for concurrent use.
//
// The collector holds only unsealed epochs: sealing an epoch drops its
// shards, and a report for a sealed epoch is late (acknowledged,
// counted, not stored). It degrades gracefully rather than stalling:
// per-agent handlers run under an idle read deadline (SetIdleTimeout)
// so a half-open connection cannot leak a goroutine, and per-agent
// liveness is tracked (AgentStatuses).
type Collector struct {
	cfg core.Config
	// seeds are cfg's hash seeds, which every report's stage must name.
	seeds []uint32
	tel   collectorTel

	clock       Clock
	idleTimeout time.Duration
	spawn       func(func())

	mu sync.Mutex
	// shards retains each agent's decoded stage per unsealed epoch
	// instead of eagerly merging it away. The seal folds the shards in
	// canonical agent-ID order (see fold), which makes the sealed
	// epoch a pure function of the shard SET: core.Merge's key
	// survival draws from the aggregate's RNG, so merge ORDER matters,
	// and canonical folding is what makes an epoch independent of the
	// order its reports arrived in. An (epoch, agent) pair is present
	// exactly when its report decoded, which is what deduplicates
	// retries.
	shards map[uint32]map[uint16]*core.Basic[flowkey.FiveTuple]
	// next is the lowest epoch the collector still takes reports for:
	// every epoch below it is sealed or was passed over by a seal, so
	// every held epoch is at or past it.
	next   uint64
	agents map[uint16]AgentStatus
}

// AgentStatus is the liveness view of one agent.
type AgentStatus struct {
	// LastEpoch is the highest epoch this agent has reported.
	LastEpoch uint32
	// LastSeen is the collector-clock time of the agent's last report
	// (duplicates count: a duplicate proves the agent is alive).
	LastSeen time.Time
	// Reports counts reports received from the agent, duplicates
	// included.
	Reports uint64
}

// collectorTel groups the collector-side instruments (all nil-safe;
// nil without SetTelemetry).
type collectorTel struct {
	// reportsRecv counts accepted sketch reports; recvBytes their
	// payload bytes; dupReports duplicates dropped by retry detection;
	// lateReports reports that no sealed epoch holds: those for an
	// epoch already sealed or passed over, and those that arrived while
	// their epoch was being sealed.
	reportsRecv *telemetry.Counter
	recvBytes   *telemetry.Counter
	dupReports  *telemetry.Counter
	lateReports *telemetry.Counter
	// mergeErrors counts reports whose stage cannot merge: it does not
	// fit the collector's Config, or its geometry differs from the
	// epoch's first shard.
	mergeErrors *telemetry.Counter
	// decodeFailures counts report payloads the decoder rejected.
	decodeFailures *telemetry.Counter
	// conns tracks live agent connections; epochsTracked the unsealed
	// epochs held in memory; agentsSeen the distinct agents ever heard
	// from.
	conns         *telemetry.Gauge
	epochsTracked *telemetry.Gauge
	agentsSeen    *telemetry.Gauge
}

// SetTelemetry registers the collector's counters ("netwide."-
// prefixed) on r; a nil registry disables telemetry. Returns the
// collector for chaining.
func (c *Collector) SetTelemetry(r *telemetry.Registry) *Collector {
	c.tel = collectorTel{
		reportsRecv:    r.Counter("netwide.reports_received"),
		recvBytes:      r.Counter("netwide.recv_bytes"),
		dupReports:     r.Counter("netwide.dup_reports"),
		lateReports:    r.Counter("netwide.late_reports"),
		mergeErrors:    r.Counter("netwide.merge_errors"),
		decodeFailures: r.Counter("netwide.decode_failures"),
		conns:          r.Gauge("netwide.agent_conns"),
		epochsTracked:  r.Gauge("netwide.epochs_tracked"),
		agentsSeen:     r.Gauge("netwide.agents_seen"),
	}
	return c
}

// SetClock replaces the collector's time source (idle deadlines,
// liveness timestamps); the chaos suite installs faultnet's virtual
// clock here. Returns the collector for chaining.
func (c *Collector) SetClock(clk Clock) *Collector {
	c.clock = clk
	return c
}

// SetIdleTimeout arms a read deadline of d before every message read
// in Handle, so a half-open or silent connection times out and
// releases its goroutine instead of leaking. Zero disables it (reads
// may then block forever). Returns the collector for chaining.
func (c *Collector) SetIdleTimeout(d time.Duration) *Collector {
	c.idleTimeout = d
	return c
}

// SetSpawn replaces the goroutine spawner Serve uses for per-agent
// handlers (default: the go statement). faultnet-based tests register
// handlers as simulation actors here (see faultnet.Network.Go).
// Returns the collector for chaining.
func (c *Collector) SetSpawn(spawn func(func())) *Collector {
	c.spawn = spawn
	return c
}

// NewCollector creates a collector expecting stages of sketches of the
// given shared configuration, at any shrink factor, on the system
// clock, with no idle timeout.
func NewCollector(cfg core.Config) *Collector {
	return &Collector{
		cfg:    cfg,
		seeds:  cfg.Seeds(),
		clock:  SystemClock,
		spawn:  func(fn func()) { go fn() },
		shards: make(map[uint32]map[uint16]*core.Basic[flowkey.FiveTuple]),
		agents: make(map[uint16]AgentStatus),
	}
}

// SetCodec does nothing: every report names its own shrink and hash
// seeds, so the collector decodes any of them and checks each against
// its Config. Returns the collector for chaining.
//
// Deprecated: drop the call; ROADMAP item 1 (one perf harness) removes it.
func (c *Collector) SetCodec(report.Codec[flowkey.FiveTuple]) *Collector { return c }

// Serve accepts agent connections until the listener closes. Each
// connection is handled on its own goroutine (via the configured
// spawner); errors on individual connections are dropped (the agent
// retries next epoch).
func (c *Collector) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c.tel.conns.Add(1)
		c.spawn(func() {
			defer c.tel.conns.Add(-1)
			defer conn.Close()
			_ = c.Handle(conn)
		})
	}
}

// Handle processes one agent connection until EOF, an error, or — with
// an idle timeout configured — until the agent goes silent for longer
// than the timeout. A failing SetReadDeadline (reset or half-closed
// connection) terminates the handler too: ignoring it would leave the
// goroutine blocked on a read that can never complete.
func (c *Collector) Handle(conn net.Conn) error {
	for {
		if c.idleTimeout > 0 {
			if err := conn.SetReadDeadline(c.clock.Now().Add(c.idleTimeout)); err != nil {
				return fmt.Errorf("netwide: arming idle deadline: %w", err)
			}
		}
		msg, err := ReadMessage(conn)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if msg.Type != MsgSketch {
			return fmt.Errorf("netwide: unexpected message type %d", msg.Type)
		}
		if err := c.ingest(msg); err != nil {
			return err
		}
		if err := WriteMessage(conn, Message{Type: MsgAck, Epoch: msg.Epoch}); err != nil {
			return err
		}
	}
}

// ingest retains one reported stage as the (epoch, agent) shard.
//
// The payload decodes on its own (report.Decode keeps no state), so it
// is decoded and checked against the collector's Config outside c.mu;
// the lock covers only the liveness update, the late and duplicate
// checks and the store. A retry after a lost acknowledgement decodes
// like the original and is then dropped as a duplicate. A report for
// an epoch below next is late: it is counted and dropped, and Handle
// acknowledges it, because no seal can take it any more.
//
// The shard is validated (core.Basic.Compatible against the epoch's
// first shard) but NOT merged here: merging is deferred to the seal,
// where the epoch's shards fold in canonical agent-ID order. Eager
// arrival-order merging would make the decoded table depend on which
// agent's report happened to land first.
func (c *Collector) ingest(msg Message) error {
	shard, err := c.decode(msg)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.agents[msg.AgentID]
	st.Reports++
	st.LastSeen = c.clock.Now()
	if msg.Epoch > st.LastEpoch {
		st.LastEpoch = msg.Epoch
	}
	c.agents[msg.AgentID] = st
	c.tel.agentsSeen.Set(int64(len(c.agents)))
	if err != nil {
		return err
	}
	if uint64(msg.Epoch) < c.next {
		c.tel.lateReports.Inc()
		return nil
	}
	if c.shards[msg.Epoch][msg.AgentID] != nil {
		// Duplicate report (agent retry after lost ack): ignore.
		c.tel.dupReports.Inc()
		return nil
	}
	epochShards, ok := c.shards[msg.Epoch]
	if !ok {
		epochShards = make(map[uint16]*core.Basic[flowkey.FiveTuple])
		c.shards[msg.Epoch] = epochShards
		c.tel.epochsTracked.Set(int64(len(c.shards)))
	} else {
		// The epoch's first shard fixes its geometry (Config/shrink);
		// every later shard must be mergeable with it, checked up front
		// so fold can never fail.
		for _, ref := range epochShards {
			if !ref.Compatible(shard) {
				c.tel.mergeErrors.Inc()
				return fmt.Errorf("netwide: agent %d epoch %d: %w", msg.AgentID, msg.Epoch, core.ErrIncompatible)
			}
			break
		}
	}
	epochShards[msg.AgentID] = shard
	c.tel.reportsRecv.Inc()
	c.tel.recvBytes.Add(uint64(len(msg.Payload)))
	return nil
}

// decode rebuilds the stage of msg's report and checks that it is a
// stage of a sketch of the collector's Config: the same arrays and hash
// seeds, and l × shrink equal to the Config's l. A rejection is counted
// in decodeFailures (corrupt payload) or mergeErrors (misfit stage).
func (c *Collector) decode(msg Message) (*core.Basic[flowkey.FiveTuple], error) {
	stage, shrink, err := report.Decode(msg.Epoch, msg.Payload, c.cfg.Arrays*c.cfg.BucketsPerArray, flowkey.FiveTupleFromBytes)
	if err != nil {
		c.tel.decodeFailures.Inc()
		return nil, fmt.Errorf("netwide: agent %d epoch %d: %w", msg.AgentID, msg.Epoch, err)
	}
	if stage.Arrays() != c.cfg.Arrays || stage.BucketsPerArray()*shrink != c.cfg.BucketsPerArray ||
		!slices.Equal(stage.Seeds(), c.seeds) {
		c.tel.mergeErrors.Inc()
		return nil, fmt.Errorf("netwide: agent %d epoch %d: stage of %d×%d buckets at shrink %d is not a stage of the %d×%d collector geometry: %w",
			msg.AgentID, msg.Epoch, stage.Arrays(), stage.BucketsPerArray(), shrink, c.cfg.Arrays, c.cfg.BucketsPerArray, core.ErrIncompatible)
	}
	return stage, nil
}

// AgentsReported returns how many distinct agents have reported an
// unsealed epoch (0 once it is sealed).
func (c *Collector) AgentsReported(epoch uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards[epoch])
}

// AgentStatuses returns a copy of the per-agent liveness table.
func (c *Collector) AgentStatuses() map[uint16]AgentStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint16]AgentStatus, len(c.agents))
	for id, st := range c.agents {
		out[id] = st
	}
	return out
}

// fold merges the epoch's per-agent shards into one network-wide
// aggregate in canonical (ascending agent-ID) order and returns it, the
// caller's to keep, with the number of shards folded (0, and no
// aggregate, when the epoch is not held); the shards themselves are
// never mutated. Canonical ordering is what makes the result a pure
// function of the shard set: core.Merge keeps values
// order-independent, but WHICH key survives a bucket collision is
// drawn from the aggregate's RNG, so two different merge orders produce
// tables that agree on every estimate yet differ bit-for-bit. Folding
// in a fixed order removes the arrival-order dependence, including for
// retried duplicates, which ingest drops
// (TestEpochIndependentOfArrivalOrder pins this).
//
// All shards are mutually Compatible (ingest enforces that on
// arrival); the fold seeds its RNG from the canonically first shard's
// serialized state, so equal shard sets yield equal aggregates.
// Caller holds c.mu.
func (c *Collector) fold(epoch uint32) (*core.Basic[flowkey.FiveTuple], int) {
	epochShards := c.shards[epoch]
	if len(epochShards) == 0 {
		return nil, 0
	}
	ids := make([]uint16, 0, len(epochShards))
	for id := range epochShards {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	agg := epochShards[ids[0]].Clone()
	for _, id := range ids[1:] {
		// Compatibility was checked at ingest, so a failure here is a
		// programming error; panicking would take the whole collector
		// down, so the offending shard is skipped instead (it cannot
		// happen through the public API).
		_ = agg.Merge(epochShards[id])
	}
	return agg, len(ids)
}

// Epochs returns the sorted list of unsealed epochs this collector
// holds shards for.
func (c *Collector) Epochs() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint32, 0, len(c.shards))
	for e := range c.shards {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

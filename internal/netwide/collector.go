package netwide

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
)

// Collector receives per-epoch sketches from agents, merges them into
// one network-wide CocoSketch per epoch, and answers partial-key
// queries. Safe for concurrent use.
//
// The collector degrades gracefully rather than stalling: per-agent
// handlers run under an idle read deadline (SetIdleTimeout) so a
// half-open connection cannot leak a goroutine, and per-agent
// liveness is tracked (AgentStatuses). An epoch covered by a coalesced
// report never arrives on its own, so a server walks Epochs and serves
// the oldest held epoch at or past the next one it expects, as
// cococollector does.
type Collector struct {
	cfg core.Config
	tel collectorTel

	clock       Clock
	idleTimeout time.Duration
	spawn       func(func())

	mu sync.Mutex
	// decoder reconstructs report payloads; it holds per-agent delta
	// base state for the compressed codec and is therefore driven
	// under mu (Decoder implementations are not concurrency-safe).
	decoder report.Decoder[flowkey.FiveTuple]
	// shards retains each agent's decoded stage per epoch instead of
	// eagerly merging it away. Queries fold the shards in canonical
	// agent-ID order (see fold), which makes the decoded table a pure
	// function of the shard SET: core.Merge's key survival draws from
	// the aggregate's RNG, so merge ORDER matters, and canonical
	// folding is what makes an epoch independent of the order its
	// reports arrived in. An (epoch, agent) pair is present exactly
	// when its report decoded, which is what deduplicates retries.
	shards map[uint32]map[uint16]*core.Basic[flowkey.FiveTuple]
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
	// payload bytes; dupReports duplicates dropped by retry detection.
	reportsRecv *telemetry.Counter
	recvBytes   *telemetry.Counter
	dupReports  *telemetry.Counter
	// mergeErrors counts reports rejected by an incompatible merge.
	mergeErrors *telemetry.Counter
	// decodeFailures counts report payloads the decoder rejected;
	// baseMismatches the subset rejected because a compressed delta's
	// base did not match the last acknowledged stage (the agent
	// recovers with a self-contained retry — see internal/report).
	decodeFailures *telemetry.Counter
	baseMismatches *telemetry.Counter
	// conns tracks live agent connections; epochsTracked the epochs
	// held in memory; agentsSeen the distinct agents ever heard from.
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
		mergeErrors:    r.Counter("netwide.merge_errors"),
		decodeFailures: r.Counter("netwide.decode_failures"),
		baseMismatches: r.Counter("netwide.base_mismatches"),
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

// NewCollector creates a collector expecting sketches of the given
// shared configuration, on the system clock, with no idle timeout,
// decoding reports with the full-snapshot codec (the compatible
// default; see SetCodec).
func NewCollector(cfg core.Config) *Collector {
	return &Collector{
		cfg:     cfg,
		clock:   SystemClock,
		spawn:   func(fn func()) { go fn() },
		decoder: report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes).NewDecoder(),
		shards:  make(map[uint32]map[uint16]*core.Basic[flowkey.FiveTuple]),
		agents:  make(map[uint16]AgentStatus),
	}
}

// SetCodec selects the codec whose decoder parses incoming report
// payloads (default report.Full — exactly the pre-codec behavior, and
// strict: compressed payloads are rejected). A report.Compressed
// collector also accepts full snapshots, so it can serve a mixed
// fleet; DESIGN.md §14 has the compatibility matrix. Call before
// Serve: the decoder holds per-agent delta state and is replaced, not
// merged. Returns the collector for chaining.
func (c *Collector) SetCodec(codec report.Codec[flowkey.FiveTuple]) *Collector {
	c.mu.Lock()
	c.decoder = codec.NewDecoder()
	c.mu.Unlock()
	return c
}

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

// ingest retains one reported sketch as the (epoch, agent) shard.
//
// Ordering matters: the duplicate check runs before the decode. A
// retry after a lost acknowledgement arrives when the decoder's delta
// base has already advanced past the retried payload's base, so
// decoding it would fail — acknowledging known (epoch, agent) pairs
// without decoding is what makes retries idempotent under every codec.
//
// The shard is validated (core.Basic.Compatible against the epoch's
// first shard) but NOT merged here: merging is deferred to query time,
// where the epoch's shards fold in canonical agent-ID order. Eager
// arrival-order merging would make the decoded table depend on which
// agent's report happened to land first.
func (c *Collector) ingest(msg Message) error {
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
	if c.shards[msg.Epoch][msg.AgentID] != nil {
		// Duplicate report (agent retry after lost ack): ignore.
		c.tel.dupReports.Inc()
		return nil
	}
	shard, err := c.decoder.Decode(msg.AgentID, msg.Epoch, msg.Payload)
	if err != nil {
		if errors.Is(err, report.ErrBaseMismatch) {
			c.tel.baseMismatches.Inc()
		}
		c.tel.decodeFailures.Inc()
		return fmt.Errorf("netwide: agent %d epoch %d: %w", msg.AgentID, msg.Epoch, err)
	}
	epochShards, ok := c.shards[msg.Epoch]
	if !ok {
		epochShards = make(map[uint16]*core.Basic[flowkey.FiveTuple])
		c.shards[msg.Epoch] = epochShards
		c.tel.epochsTracked.Add(1)
	} else {
		// The epoch's first shard fixes its geometry (full snapshots
		// arrive at the shared Config, compressed stages at Config/
		// shrink); every later shard must be mergeable with it, checked
		// up front so fold can never fail.
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

// AgentsReported returns how many distinct agents contributed to an
// epoch.
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
// caller's to keep; the shards themselves are never mutated. Canonical
// ordering is what makes the result a pure function of the shard set:
// core.Merge keeps values order-independent, but WHICH key survives a
// bucket collision is drawn from the aggregate's RNG, so two different
// merge orders produce tables that agree on every estimate yet differ
// bit-for-bit. Folding in a fixed order removes the arrival-order
// dependence, including for retried duplicates, which ingest drops
// (TestEpochIndependentOfArrivalOrder pins this).
//
// All shards are mutually Compatible (ingest enforces that on
// arrival); the fold seeds its RNG from the canonically first shard's
// serialized state, so equal shard sets yield equal aggregates.
// Caller holds c.mu.
func (c *Collector) fold(epoch uint32) (*core.Basic[flowkey.FiveTuple], bool) {
	epochShards, ok := c.shards[epoch]
	if !ok {
		return nil, false
	}
	ids := make([]int, 0, len(epochShards))
	for id := range epochShards {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	agg := epochShards[uint16(ids[0])].Clone()
	for _, id := range ids[1:] {
		// Compatibility was checked at ingest, so a failure here is a
		// programming error; panicking would take the whole collector
		// down, so the offending shard is skipped instead (it cannot
		// happen through the public API).
		_ = agg.Merge(epochShards[uint16(id)])
	}
	return agg, true
}

// Epochs returns the sorted list of epochs this collector holds shards
// for.
func (c *Collector) Epochs() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint32, 0, len(c.shards))
	for e := range c.shards {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Epoch returns a query engine over the merged network-wide table of
// one epoch (false if no agent reported it yet). The table is the
// canonical fold of the epoch's per-agent shards, independent of the
// order reports arrived in.
func (c *Collector) Epoch(epoch uint32) (*query.Engine, bool) {
	c.mu.Lock()
	agg, ok := c.fold(epoch)
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return query.NewEngine(agg.Decode()), true
}

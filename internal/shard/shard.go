// Package shard provides the multi-core ingest engine: N workers, each
// owning a private CocoSketch behind a single-producer single-consumer
// ring, whose sketches are merged (core.Merge) at decode so queries see
// the whole stream — the paper's OVS scaling architecture (§6.1: one
// sketch per dataplane thread, merged at decode).
//
// Two sources feed one worker type, one drain loop and one merge, and
// differ only in a per-burst fill/release step (see worker.go):
//
//	source (1 goroutine)                   worker w (1 per ring)
//	┌───────────────────────────┐          ┌──────────────────────────┐
//	│ Engine.Ingest: RSS split, │  ring w  │ TryPopN (64-entry burst) │
//	│   trace.Packet bursts     │ ───────▶ │ fill → InsertBatch into  │
//	│ replay: pcap reader per   │   SPSC   │ private sketch → release │
//	│   queue extracts keys,    │          └──────────────────────────┘
//	│   keyed-record bursts     │
//	└───────────────────────────┘
//	            Decode/Query/Snapshot: merge N sketches (core.Merge)
//
// Determinism: every worker consumes its ring in FIFO order, so its
// sketch state is a pure function of the input order and the RSS
// split. One worker reproduces the sequential sketch bit for bit, and
// an N-queue replay of an RSS-partitioned capture reproduces an
// N-worker Engine (shard_test.go, replay_test.go).
//
// Concurrency contract: Ingest/Flush/Close must be called from one
// goroutine (the dispatcher side of the SPSC rings); Snapshot, Decode,
// Query and Stats may be called from any goroutine at any time.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/ovs"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// Sketch is the contract a per-worker sketch must satisfy: batched
// inserts for the ring drain path, point queries and full decode for
// the control plane, and Merge so N worker sketches fold into one at
// decode time. Both core variants satisfy it (S is the sketch's own
// pointer type, e.g. *core.Basic[flowkey.FiveTuple]).
type Sketch[S any] interface {
	InsertBatch(keys []flowkey.FiveTuple, ws []uint64)
	InsertBatchUnit(keys []flowkey.FiveTuple)
	Query(key flowkey.FiveTuple) uint64
	Decode() map[flowkey.FiveTuple]uint64
	SumValues() uint64
	Merge(other S) error
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of worker/sketch pairs (N). Defaults to
	// GOMAXPROCS; throughput scales with physical cores.
	Workers int
	// RingCapacity is the per-worker SPSC ring size (default 4096, the
	// DPDK default, rounded up to a power of two by ovs.NewRing).
	RingCapacity int
	// Seed drives the receive-side-scaling hash. Engines with equal
	// Seed and Workers split a stream identically.
	Seed uint64
	// DropOnFull makes the dispatcher drop the tail of a burst when a
	// worker's ring is full (NIC-like overload) instead of spinning
	// until space frees up. Dropped packets are counted in Stats.
	DropOnFull bool
	// Bytes weights each packet by its wire size instead of counting
	// packets, matching the Bytes switch of the experiment harness.
	Bytes bool
	// Telemetry, when non-nil, receives the engine's runtime metrics
	// (see the "shard." names in DESIGN.md §11). All instrumentation
	// is burst-level — one atomic per 64-packet burst, never one per
	// packet — and compiles to nil-checks when Telemetry is nil.
	Telemetry *telemetry.Registry
}

// DefaultRingCapacity is the per-worker ring size when Config leaves
// RingCapacity zero.
const DefaultRingCapacity = 4096

// DefaultBurst is the dispatch, read and drain burst of every ring: 64
// elements, the DPDK rx_burst convention used throughout the
// repository.
const DefaultBurst = 64

// Stats is a point-in-time view of engine progress. Counters are
// monotone; Consumed trails Dispatched by what is still queued in
// rings and burst buffers.
type Stats struct {
	// Workers is N, the worker/sketch pair count.
	Workers int
	// Dispatched counts packets accepted by Ingest (including packets
	// still buffered or queued).
	Dispatched uint64
	// Dropped counts packets discarded at full rings (DropOnFull only).
	Dropped uint64
	// Consumed counts packets the workers have inserted into their
	// sketches.
	Consumed uint64
}

// pauseReq is one snapshot barrier: every worker checks in between
// bursts (arrived), parks until the coordinator finishes merging
// (release), then resumes.
type pauseReq struct {
	arrived sync.WaitGroup
	release chan struct{}
}

// engineTel groups the engine's telemetry instruments. Every field is
// nil when Config.Telemetry is nil, which turns each record call into
// a predictable nil-check (see package telemetry).
type engineTel struct {
	// dispatched/dropped/consumed mirror Stats as live counters;
	// pushFail counts pushes that found a ring full.
	dispatched, dropped, consumed, pushFail *telemetry.Counter
	// batchSize is the distribution of drain-burst sizes popped by the
	// workers — small bursts mean the workers are outrunning ingest.
	batchSize *telemetry.Histogram
	// snapshotWaitNs and mergeNs split Snapshot latency into the
	// barrier wait and the sketch merge; decodeNs covers full Decode
	// calls (snapshot + table build).
	snapshotWaitNs, mergeNs, decodeNs *telemetry.Histogram
}

// newEngineTel registers the engine metrics (no-ops on nil registry).
func newEngineTel(r *telemetry.Registry) engineTel {
	return engineTel{
		dispatched:     r.Counter("shard.dispatched"),
		dropped:        r.Counter("shard.ring_drops"),
		consumed:       r.Counter("shard.consumed"),
		pushFail:       r.Counter("shard.ring_push_fail"),
		batchSize:      r.Histogram("shard.batch_size"),
		snapshotWaitNs: r.Histogram("shard.snapshot_wait_ns"),
		mergeNs:        r.Histogram("shard.merge_ns"),
		decodeNs:       r.Histogram("shard.decode_ns"),
	}
}

// lane is the dispatcher's side of one worker: the burst being
// assembled for it and its per-shard telemetry (ring occupancy sampled
// at dispatch, drops charged to this shard).
type lane struct {
	burst    []trace.Packet
	telOcc   *telemetry.Gauge
	telDrops *telemetry.Counter
}

// packets is the Engine's source: a decoded record already carries its
// key and wire size, and nothing needs returning after the insert.
type packets struct{}

func (packets) fill(ps []trace.Packet, keys []flowkey.FiveTuple, ws []uint64) {
	for j := range ps {
		keys[j] = ps[j].Key
	}
	if ws != nil {
		for j := range ps {
			ws[j] = uint64(ps[j].Size)
		}
	}
}

func (packets) release([]trace.Packet) {}

// Engine is the sharded ingest engine. Construct with New (or the
// NewBasic/NewHardware convenience constructors), feed packets with
// Ingest, and read results with Decode/Query/Snapshot — live via the
// snapshot barrier, or after Close for the final state.
type Engine[S Sketch[S]] struct {
	cfg       Config
	newSketch func(i int) S
	workers   []*worker[S, trace.Packet]
	wg        sync.WaitGroup

	// Dispatcher-side state (single goroutine; see package contract).
	lanes []lane
	// dispatched/dropped are written by the dispatcher only but read
	// by Stats from any goroutine, hence atomic.
	dispatched atomic.Uint64
	dropped    atomic.Uint64

	// tel holds the engine's telemetry instruments (all nil-safe).
	tel engineTel

	// mu serializes the control plane: Snapshot/Decode/Query/Close.
	mu     sync.Mutex
	closed bool
}

// New builds an engine whose per-worker sketches come from newSketch.
// newSketch is called with worker indices 0..Workers-1 and, for every
// decode, once more with index Workers to create the merge target; all
// returned sketches must be merge-compatible (same geometry and hash
// seeds — in core terms, built from one Config). Workers start
// immediately.
//
// Worker 0's sketch must be in the same state a sequential sketch
// would start in if the 1-worker engine is to reproduce the sequential
// path exactly (NewBasic arranges this by reseeding only workers > 0).
func New[S Sketch[S]](cfg Config, newSketch func(i int) S) *Engine[S] {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = DefaultRingCapacity
	}
	e := &Engine[S]{
		cfg:       cfg,
		newSketch: newSketch,
		lanes:     make([]lane, cfg.Workers),
		tel:       newEngineTel(cfg.Telemetry),
	}
	for i := range e.lanes {
		w := newWorker(ovs.NewRing(cfg.RingCapacity), newSketch(i), packets{},
			cfg.Bytes, e.tel.batchSize, e.tel.consumed)
		e.workers = append(e.workers, w)
		e.lanes[i] = lane{
			burst:    make([]trace.Packet, 0, DefaultBurst),
			telOcc:   cfg.Telemetry.Gauge(fmt.Sprintf("shard.ring_occupancy.w%d", i)),
			telDrops: cfg.Telemetry.Counter(fmt.Sprintf("shard.ring_drops.w%d", i)),
		}
	}
	e.wg.Add(cfg.Workers)
	for _, w := range e.workers {
		go func() {
			defer e.wg.Done()
			w.run()
		}()
	}
	return e
}

// rngSalt decorrelates per-worker replacement draws; index 0 maps to
// zero so worker 0 keeps the sequential RNG sequence.
func rngSalt(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// NewBasicFactory returns the per-worker sketch constructor that
// NewBasic and ReplayPCAPBasic share: worker 0 keeps the sequential
// sketch state, workers > 0 get decorrelated replacement RNGs, and all
// workers flush update outcomes into one shared "core."-prefixed
// telemetry group (no-op on a nil registry). Exported so external
// replay drivers (experiments, benchmarks) can build sketch sets that
// merge bit-identically with an engine's.
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

// NewBasic builds an engine of basic (software, §4.1) CocoSketch
// workers sharing sketchCfg, which keeps them merge-compatible; see
// NewBasicFactory for the seeding and telemetry scheme.
func NewBasic(cfg Config, sketchCfg core.Config) *Engine[*core.Basic[flowkey.FiveTuple]] {
	return New(cfg, NewBasicFactory(sketchCfg, cfg.Telemetry))
}

// NewHardware builds an engine of hardware-friendly (§4.2) CocoSketch
// workers sharing sketchCfg; see NewBasicFactory for the seeding and
// telemetry scheme.
func NewHardware(cfg Config, sketchCfg core.Config) *Engine[*core.Hardware[flowkey.FiveTuple]] {
	m := telemetry.NewSketchMetrics(cfg.Telemetry, "core")
	return New(cfg, func(i int) *core.Hardware[flowkey.FiveTuple] {
		s := core.NewHardware[flowkey.FiveTuple](sketchCfg)
		if i > 0 {
			s.Reseed(sketchCfg.Seed ^ rngSalt(i))
		}
		return s.SetTelemetry(m)
	})
}

// Workers returns N.
func (e *Engine[S]) Workers() int { return e.cfg.Workers }

// Ingest dispatches packets to the workers: each packet is RSS-hashed
// to its worker and appended to that worker's burst buffer, which is
// pushed into the ring as one TryPushN when full. Call Flush (or
// Close) to push out partial bursts. Single-goroutine only; panics
// after Close.
func (e *Engine[S]) Ingest(ps []trace.Packet) {
	e.mustBeOpen()
	for i := range ps {
		e.dispatch(ps[i])
	}
	e.dispatched.Add(uint64(len(ps)))
	e.tel.dispatched.Add(uint64(len(ps)))
}

// IngestKeys dispatches bare keys with unit weight — the convenient
// form when the caller has no trace.Packet records. Panics after Close.
func (e *Engine[S]) IngestKeys(keys []flowkey.FiveTuple) {
	e.mustBeOpen()
	for _, k := range keys {
		e.dispatch(trace.Packet{Key: k})
	}
	e.dispatched.Add(uint64(len(keys)))
	e.tel.dispatched.Add(uint64(len(keys)))
}

// dispatch appends p to its worker's burst, pushing the burst when it
// is full. The worker comes from the canonical RSS split
// (flowkey.RSSIndex), the function pcap.PartitionRSS steers with, so
// pre-partitioned queue i holds exactly worker i's packets.
func (e *Engine[S]) dispatch(p trace.Packet) {
	w := flowkey.RSSIndex(p.Key, e.cfg.Seed, e.cfg.Workers)
	l := &e.lanes[w]
	l.burst = append(l.burst, p)
	if len(l.burst) == DefaultBurst {
		e.flushWorker(w)
	}
}

// flushWorker pushes worker w's pending burst into its ring, spinning
// (or dropping, per DropOnFull) while the ring is full. With telemetry
// on, each flush samples the ring's occupancy and counts push attempts
// that could not place the whole remaining burst.
func (e *Engine[S]) flushWorker(w int) {
	l := &e.lanes[w]
	ring := e.workers[w].ring
	if l.telOcc != nil {
		l.telOcc.Set(int64(ring.Len()))
	}
	if d := push(ring, l.burst, e.cfg.DropOnFull, e.tel.pushFail); d > 0 {
		e.dropped.Add(d)
		e.tel.dropped.Add(d)
		l.telDrops.Add(d)
	}
	l.burst = l.burst[:0]
}

// Flush pushes all partial bursts into the rings. Ingest keeps working
// after a Flush; call it before a Snapshot that must observe every
// packet ingested so far (once the workers drain their rings). Panics
// after Close.
func (e *Engine[S]) Flush() {
	e.mustBeOpen()
	for w := range e.lanes {
		if len(e.lanes[w].burst) > 0 {
			e.flushWorker(w)
		}
	}
}

// mustBeOpen rejects dispatch after Close: the workers have exited, so
// the packets would never be measured and a full ring would block the
// dispatcher forever. Close runs on this goroutine, so no lock is
// needed to read closed.
func (e *Engine[S]) mustBeOpen() {
	if e.closed {
		panic("shard: Ingest after Close")
	}
}

// Close flushes pending bursts, closes the rings, and waits for the
// workers to drain and exit. Idempotent. After Close, Decode/Query/
// Snapshot read the final merged state, and Ingest, IngestKeys and
// Flush panic, as a send on a closed channel does. Like Ingest, Close
// belongs to the dispatcher goroutine.
func (e *Engine[S]) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.Flush()
	for _, w := range e.workers {
		w.ring.Close()
	}
	e.wg.Wait()
	e.closed = true
}

// Snapshot returns a consistent point-in-time merge of the per-worker
// sketches without stopping ingest: all workers park at their next
// burst boundary, the sketches are merged into a fresh sketch, and the
// workers resume. The caller owns the returned sketch. Packets still
// queued in rings or burst buffers are not yet part of the snapshot
// (they have not been "measured"); call Flush first and allow a drain
// if completeness up to a known point matters more than immediacy.
//
// The pause is one merge long (O(sketch memory), microseconds at
// typical sizes); the dispatcher keeps pushing into the rings
// meanwhile, so ingest stalls only if a ring fills during the pause.
func (e *Engine[S]) Snapshot() (S, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.timedMerge()
	}
	start := time.Now()
	req := &pauseReq{release: make(chan struct{})}
	req.arrived.Add(len(e.workers))
	for _, w := range e.workers {
		w.pause.Store(req)
	}
	req.arrived.Wait()
	e.tel.snapshotWaitNs.Observe(uint64(time.Since(start).Nanoseconds()))
	defer close(req.release)
	return e.timedMerge()
}

// timedMerge merges the worker sketches under the merge-latency
// histogram. Callers must hold e.mu and guarantee the workers are
// quiescent (parked at a barrier, or exited after Close).
func (e *Engine[S]) timedMerge() (S, error) {
	start := time.Now()
	s, err := combine(e.newSketch, e.workers)
	e.tel.mergeNs.Observe(uint64(time.Since(start).Nanoseconds()))
	return s, err
}

// Decode returns the merged full-key table across all workers — the
// control plane's Step 3 over the whole engine. Live engines pay one
// snapshot barrier; closed engines read the final state directly.
func (e *Engine[S]) Decode() (map[flowkey.FiveTuple]uint64, error) {
	start := time.Now()
	s, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	out := s.Decode()
	e.tel.decodeNs.Observe(uint64(time.Since(start).Nanoseconds()))
	return out, nil
}

// Query estimates one full-key flow across all workers. It snapshots
// internally; batch control-plane reads should Snapshot once and query
// the returned sketch.
func (e *Engine[S]) Query(key flowkey.FiveTuple) (uint64, error) {
	s, err := e.Snapshot()
	if err != nil {
		return 0, err
	}
	return s.Query(key), nil
}

// Stats reports progress counters. Safe to call from any goroutine.
func (e *Engine[S]) Stats() Stats {
	st := Stats{
		Workers:    e.cfg.Workers,
		Dispatched: e.dispatched.Load(),
		Dropped:    e.dropped.Load(),
	}
	for _, w := range e.workers {
		st.Consumed += w.consumed.Load()
	}
	return st
}

package shard

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/ovs"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/telemetry"
)

// This file is the zero-allocation replay source. Each simulated
// receive queue runs a reader goroutine (pcap record → arena slot,
// filled in place by ReadFrame) and a worker (slot → 5-tuple via
// packet.ExtractFiveTuple → InsertBatch → release) joined by a ring of
// 12-byte packet.FrameRef handles. Frame order owns the slots: frame k
// lives in slot k mod PoolSlots, and the reader may fill it only once
// the worker has released frame k − PoolSlots. In steady state nothing
// is allocated; when every slot is in flight the reader parks until
// the worker has freed a quarter of them, instead of allocating or
// dropping — the backpressure and slot ownership contract of
// DESIGN.md §13.

// ReplayConfig parameterizes a pooled replay run.
type ReplayConfig struct {
	// Queues is the number of simulated NIC receive queues, each with a
	// dedicated reader/worker goroutine pair (default 1).
	Queues int
	// PoolSlots is the number of frame slots in each queue's arena
	// (default DefaultPoolSlots). Bounds the number of frames in flight
	// per queue; when every slot is in flight the reader waits, it
	// never allocates. The queue's handoff ring holds at least as many
	// refs, so it can never fill (in-flight refs ≤ in-flight slots),
	// leaving slot exhaustion as the single backpressure signal.
	PoolSlots int
	// SlotCap is the byte capacity of each arena slot (default
	// DefaultSlotCap). Records longer than SlotCap are truncated on
	// read, NIC snapshot-length style, and counted in ReplayStats.
	// Byte weights come from the record's original length, so only a
	// SlotCap below packet.MaxKeyHeaderLen can change what is measured.
	SlotCap int
	// Seed drives the RSS split when a stream is partitioned into
	// queues; it must match the shard Engine seed being compared
	// against for bit-identical replays.
	Seed uint64
	// Bytes weights each packet by its original wire length instead of
	// counting packets, mirroring Config.Bytes.
	Bytes bool
	// Telemetry, when non-nil, receives the pipeline's burst-level
	// metrics (the "ingest." names in DESIGN.md §11).
	Telemetry *telemetry.Registry
}

// DefaultPoolSlots is the per-queue slot count when ReplayConfig
// leaves PoolSlots zero.
const DefaultPoolSlots = 1024

// DefaultSlotCap is the per-slot byte capacity when ReplayConfig leaves
// SlotCap zero: the headers, not the payload. The replay reads nothing
// past the L4 ports, and the deepest header stack the extractor
// accepts is packet.MaxKeyHeaderLen (138) bytes, so no frame's key or
// acceptance depends on the bytes a 192-byte slot drops. Small slots
// keep the arena dense in cache and stop copying payloads (DESIGN.md
// §13).
const DefaultSlotCap = 192

// ReplayStats summarizes a finished replay.
type ReplayStats struct {
	// Queues is the number of receive queues replayed.
	Queues int
	// Packets counts frames decoded and inserted into the sketches.
	Packets uint64
	// Skipped counts frames the extractor rejected (non-IP, truncated
	// headers) — routed to queue 0 by PartitionRSS and dropped here,
	// mirroring how trace.FromPCAP skips them.
	Skipped uint64
	// Truncated counts records longer than a slot, stored as a
	// SlotCap-byte prefix. At the default SlotCap that is every frame
	// whose payload was dropped, not a loss: keys and byte weights are
	// unchanged.
	Truncated uint64
	// Starved counts reader parks: each time the reader found every
	// slot in flight and blocked until the worker had freed a quarter
	// of them. One stall counts once, however long it lasts
	// (backpressure events, not lost packets).
	Starved uint64
	// Recycled counts frames the workers released, handing their slots
	// back to the readers; equal to Packets+Skipped after a clean run.
	Recycled uint64
}

// frames is one receive queue's source. The reader side (readBurst,
// readAll, park) belongs to the reader goroutine; fill and release run
// on the queue's worker goroutine. Reading and draining are plain
// steps so a single goroutine can alternate them — that is how the
// zero-allocation property is pinned by testing.AllocsPerRun. A slot
// belongs to the worker from the reader's push until the worker's
// release, and to the reader otherwise.
type frames struct {
	mem     []byte // slots × slotCap, one allocation
	slots   int
	slotCap int
	ring    *ovs.RingOf[packet.FrameRef]
	reader  *pcap.Reader

	// read counts frames the reader has published, released the
	// frames the worker is done with (the oldest, as the ring is
	// FIFO). Each is written by its side once per burst.
	read, released atomic.Uint64

	// The park handshake. A starved reader sets waiting, re-checks
	// the in-flight count and blocks on wake; the worker, after
	// releasing a burst, claims waiting and sends once at most
	// resumeAt frames are in flight (at least a quarter of the slots
	// free).
	waiting  atomic.Bool
	wake     chan struct{}
	resumeAt int

	// Reader-side state, read by others only after the join.
	refs      []packet.FrameRef
	done      bool
	starved   uint64
	truncated uint64

	// Worker-side state, read by others only after the join.
	skipped uint64

	// Telemetry instruments, all nil (each record a nil-check) when
	// the registry is nil.
	telStarved, telTruncated, telSkipped, telRecycled *telemetry.Counter
	telOcc                                            *telemetry.Gauge
}

// newQueue builds receive queue i over a positioned pcap reader: its
// frame source and the worker that drains it into sketch.
func newQueue[S Sketch[S]](cfg ReplayConfig, i int, r *pcap.Reader, sketch S) (*frames, *worker[S, packet.FrameRef]) {
	reg := cfg.Telemetry
	q := &frames{
		mem:          make([]byte, cfg.PoolSlots*cfg.SlotCap),
		slots:        cfg.PoolSlots,
		slotCap:      cfg.SlotCap,
		ring:         ovs.NewRingOf[packet.FrameRef](cfg.PoolSlots),
		reader:       r,
		refs:         make([]packet.FrameRef, 0, DefaultBurst),
		wake:         make(chan struct{}, 1),
		resumeAt:     cfg.PoolSlots - max(1, cfg.PoolSlots/4),
		telStarved:   reg.Counter("ingest.pool_starved"),
		telTruncated: reg.Counter("ingest.truncated"),
		telSkipped:   reg.Counter("ingest.skipped"),
		telRecycled:  reg.Counter("ingest.recycled"),
		telOcc:       reg.Gauge(fmt.Sprintf("ingest.pool_occupancy.q%d", i)),
	}
	return q, newWorker(q.ring, sketch, q, cfg.Bytes, reg.Histogram("ingest.batch_size"), nil)
}

// slot returns slot s's full-capacity buffer.
func (q *frames) slot(s packet.Slot) []byte {
	off := int(s) * q.slotCap
	return q.mem[off : off+q.slotCap : off+q.slotCap]
}

// inFlight returns the number of frames published and not yet
// released.
func (q *frames) inFlight() int { return int(q.read.Load() - q.released.Load()) }

// readBurst fills up to one burst of free slots in frame order with
// ReadFrame, publishes them, and pushes their FrameRefs into the ring
// (spinning on a full ring, which a slot-sized ring makes
// unreachable). It returns the number of refs pushed; zero with
// q.done still false means every slot is in flight and the caller
// should park and retry. On EOF or a read error the frame count does
// not advance, so the slot it was filling stays free.
func (q *frames) readBurst() (int, error) {
	read := q.read.Load()
	want := min(DefaultBurst, q.slots-int(read-q.released.Load()))
	s := packet.Slot(read % uint64(q.slots))
	refs := q.refs[:0]
	for len(refs) < want {
		n, capLen, origLen, err := q.reader.ReadFrame(q.slot(s))
		if err == io.EOF {
			q.done = true
			break
		}
		if err != nil {
			q.refs = refs
			return 0, err
		}
		if capLen > n {
			q.truncated++
			q.telTruncated.Inc()
		}
		refs = append(refs, packet.FrameRef{
			Slot: s,
			Len:  uint32(n),
			Orig: uint32(origLen),
		})
		s++
		if int(s) == q.slots {
			s = 0
		}
	}
	q.refs = refs
	q.read.Add(uint64(len(refs)))
	push(q.ring, refs, false, nil)
	q.telOcc.Set(int64(q.inFlight()))
	return len(refs), nil
}

// readAll feeds the ring until the capture is exhausted, parking while
// every slot is in flight. It closes the ring on every path, so the
// worker drains what was pushed and exits.
func (q *frames) readAll() error {
	defer q.ring.Close()
	for !q.done {
		n, err := q.readBurst()
		if err != nil {
			return err
		}
		if n == 0 && !q.done {
			q.park()
		}
	}
	return nil
}

// park blocks the reader, with every slot in flight, until the worker
// has freed a quarter of them. Blocking, not yielding: a reader that
// loops on runtime.Gosched keeps its P's run queue busy, so the
// scheduler skips its network poll (DESIGN.md §13). Both sides write
// before they check — the reader sets waiting then reads released,
// the worker advances released then reads waiting — so one of them
// always sees the other and no wake-up is lost.
func (q *frames) park() {
	q.waiting.Store(true)
	if q.inFlight() > q.resumeAt {
		q.starved++
		q.telStarved.Inc()
		<-q.wake
		return
	}
	if !q.waiting.CompareAndSwap(true, false) {
		// The worker claimed this wait; take its token so the next
		// park does not wake early.
		<-q.wake
	}
}

// fill extracts each frame's key straight out of its slot and weights
// it by the frame's original wire length. Frames the extractor rejects
// (non-IP, truncated headers) are counted and left out.
func (q *frames) fill(refs []packet.FrameRef, keys []flowkey.FiveTuple, ws []uint64) int {
	m := 0
	for j := range refs {
		ref := &refs[j]
		key, ok := packet.ExtractFiveTuple(q.slot(ref.Slot)[:ref.Len])
		if !ok {
			continue
		}
		keys[m] = key
		if ws != nil {
			ws[m] = uint64(ref.Orig)
		}
		m++
	}
	skip := uint64(len(refs) - m)
	q.skipped += skip
	q.telSkipped.Add(skip)
	return m
}

// release hands the burst's slots back to the reader — the worker owns
// them until the insert has returned (DESIGN.md §13) — and wakes a
// parked reader once a quarter of the slots are free.
func (q *frames) release(refs []packet.FrameRef) {
	n := uint64(len(refs))
	released := q.released.Add(n)
	q.telRecycled.Add(n)
	if q.waiting.Load() && int(q.read.Load()-released) <= q.resumeAt && q.waiting.CompareAndSwap(true, false) {
		q.wake <- struct{}{}
	}
}

// normalizeReplay applies ReplayConfig defaults.
func normalizeReplay(cfg ReplayConfig) ReplayConfig {
	if cfg.PoolSlots <= 0 {
		cfg.PoolSlots = DefaultPoolSlots
	}
	if cfg.SlotCap <= 0 {
		cfg.SlotCap = DefaultSlotCap
	}
	return cfg
}

// replay runs one reader goroutine and one worker goroutine per
// reader to completion, then merges the per-queue sketches (newSketch
// follows the New contract). cfg must be normalized.
func replay[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, readers []*pcap.Reader) (S, ReplayStats, error) {
	qs := make([]*frames, len(readers))
	workers := make([]*worker[S, packet.FrameRef], len(readers))
	for i, r := range readers {
		qs[i], workers[i] = newQueue(cfg, i, r, newSketch(i))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(qs))
	wg.Add(2 * len(qs))
	for i := range qs {
		go func() {
			defer wg.Done()
			errs[i] = qs[i].readAll()
		}()
		go func() {
			defer wg.Done()
			workers[i].run()
		}()
	}
	wg.Wait()

	st := ReplayStats{Queues: len(qs)}
	for i, q := range qs {
		st.Packets += workers[i].consumed.Load()
		st.Skipped += q.skipped
		st.Truncated += q.truncated
		st.Starved += q.starved
		st.Recycled += q.released.Load()
	}
	var zero S
	for i, err := range errs {
		if err != nil {
			return zero, st, fmt.Errorf("shard: replay queue %d: %w", i, err)
		}
	}
	merged, err := combine(newSketch, workers)
	return merged, st, err
}

// ReplayQueues replays pre-partitioned receive queues through the
// pooled pipeline, one reader/worker pair per queue, and merges the
// per-queue sketches into one (newSketch follows the New contract:
// indices 0..len(queues)-1 build queue sketches, index len(queues)
// builds the merge target). Use pcap.PartitionRSS with the same seed
// and queue count as a comparison Engine to get bit-identical sketch
// state — queue i's packets are exactly worker i's packets.
func ReplayQueues[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, queues []*pcap.Queue) (S, ReplayStats, error) {
	var zero S
	if len(queues) == 0 {
		return zero, ReplayStats{}, fmt.Errorf("shard: ReplayQueues needs at least one queue")
	}
	readers := make([]*pcap.Reader, len(queues))
	for i, qu := range queues {
		r, err := qu.Open()
		if err != nil {
			return zero, ReplayStats{}, err
		}
		readers[i] = r
	}
	return replay(normalizeReplay(cfg), newSketch, readers)
}

// ReplayPCAP replays one raw pcap stream through the pooled pipeline.
// With Queues ≤ 1 the stream feeds a single reader/worker pair
// directly — no partition pass, no extra copy of the capture. With
// Queues > 1 the stream is first split with pcap.PartitionRSS (a
// one-time allocating setup pass) and then replayed concurrently.
func ReplayPCAP[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, r io.Reader) (S, ReplayStats, error) {
	cfg = normalizeReplay(cfg)
	var zero S
	if cfg.Queues <= 1 {
		pr, err := pcap.NewReader(r)
		if err != nil {
			return zero, ReplayStats{}, err
		}
		if lt := pr.LinkType(); lt != pcap.LinkTypeEthernet {
			return zero, ReplayStats{}, fmt.Errorf("shard: replay supports only Ethernet captures, got link type %d", lt)
		}
		return replay(cfg, newSketch, []*pcap.Reader{pr})
	}
	queues, err := pcap.PartitionRSS(r, cfg.Queues, cfg.Seed)
	if err != nil {
		return zero, ReplayStats{}, err
	}
	return ReplayQueues(cfg, newSketch, queues)
}

// ReplayPCAPBasic is ReplayPCAP specialized to basic CocoSketch
// workers, with the same per-queue seeding and shared telemetry scheme
// as NewBasic — so an N-queue replay reproduces an N-worker Engine's
// merged sketch bit for bit when seeds match.
func ReplayPCAPBasic(cfg ReplayConfig, sketchCfg core.Config, r io.Reader) (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
	return ReplayPCAP(cfg, NewBasicFactory(sketchCfg, cfg.Telemetry), r)
}

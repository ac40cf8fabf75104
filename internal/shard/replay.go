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
// receive queue runs a reader goroutine, the datapath (pcap record →
// one header-sized buffer, filled in place by ReadFrame → 5-tuple via
// packet.ExtractFiveTuple), and a worker (keys → InsertBatch →
// release) joined by a ring of 20-byte keyed records; a single capture
// replayed on several queues has one reader, which steers each record
// to its queue (split). At most PoolSlots records are in flight per
// queue; when that many are, the reader parks until the worker has
// inserted a quarter of them, instead of allocating or dropping — the
// protocol of DESIGN.md §13.

// ReplayConfig parameterizes a pooled replay run.
type ReplayConfig struct {
	// Queues is the number of simulated NIC receive queues, each with a
	// worker goroutine (default 1). ReplayPCAP feeds them all from one
	// reader; ReplayQueues, which takes its queue count from its
	// queues, gives each its own.
	Queues int
	// PoolSlots bounds the frames in flight per queue: records the
	// reader has pushed whose keys the worker has not yet inserted
	// (default DefaultPoolSlots). When that many are in flight the
	// reader waits, it never allocates or drops. The queue's ring holds
	// at least as many records, so it can never fill, leaving the
	// in-flight bound as the single backpressure signal.
	PoolSlots int
	// SlotCap is the byte capacity of the reader's frame buffer
	// (default DefaultSlotCap). Records longer than SlotCap are
	// truncated on read, NIC snapshot-length style, and counted in
	// ReplayStats. Byte weights come from the record's original length,
	// so only a SlotCap below packet.MaxKeyHeaderLen can change what is
	// measured.
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

// DefaultPoolSlots is the per-queue in-flight bound when ReplayConfig
// leaves PoolSlots zero.
const DefaultPoolSlots = 1024

// DefaultSlotCap is the reader's frame buffer size when ReplayConfig
// leaves SlotCap zero: the headers, not the payload. The replay reads
// nothing past the L4 ports, and the deepest header stack the
// extractor accepts is packet.MaxKeyHeaderLen (138) bytes, so no
// frame's key or acceptance depends on the bytes a 192-byte buffer
// drops, and no payload is copied (DESIGN.md §13).
const DefaultSlotCap = 192

// ReplayStats summarizes a finished replay.
type ReplayStats struct {
	// Queues is the number of receive queues replayed.
	Queues int
	// Packets counts frames decoded and inserted into the sketches.
	Packets uint64
	// Skipped counts frames the extractor rejected (non-IP, truncated
	// headers) — steered to queue 0, as PartitionRSS does, and dropped
	// by the reader, mirroring how trace.FromPCAP skips them.
	Skipped uint64
	// Truncated counts records longer than the reader's buffer, read as
	// a SlotCap-byte prefix. At the default SlotCap that is every frame
	// whose payload was dropped, not a loss: keys and byte weights are
	// unchanged.
	Truncated uint64
	// Starved counts reader parks: each time the reader found PoolSlots
	// frames in flight and blocked until the worker had inserted a
	// quarter of them. One stall counts once, however long it lasts
	// (backpressure events, not lost packets).
	Starved uint64
}

// record is one keyed frame on a replay queue's ring: the key the
// reader extracted and the record's original wire length, the frame's
// byte weight.
type record struct {
	key  flowkey.FiveTuple
	orig uint32
}

// frames is one receive queue's source. The reader side (readBurst,
// readAll, park) belongs to the reader goroutine; fill and release run
// on the queue's worker goroutine. Reading and draining are plain
// steps so a single goroutine can alternate them — that is how the
// zero-allocation property is pinned by testing.AllocsPerRun.
type frames struct {
	buf    []byte // the reader's frame buffer, SlotCap bytes
	slots  int    // PoolSlots, the in-flight bound
	ring   *ovs.RingOf[record]
	reader *pcap.Reader

	// read counts records the reader has pushed, released those whose
	// keys the worker has inserted (the oldest, as the ring is FIFO).
	// Each is written by its side once per burst.
	read, released atomic.Uint64

	// The park handshake. A starved reader sets waiting, re-checks
	// the in-flight count and blocks on wake; the worker, after
	// releasing a burst, claims waiting and sends once at most
	// resumeAt frames are in flight (at least a quarter of the bound
	// free).
	waiting  atomic.Bool
	wake     chan struct{}
	resumeAt int

	// Reader-side state, read by others only after the join.
	recs                        []record
	done                        bool
	starved, truncated, skipped uint64

	// Telemetry instruments, all nil (each record a nil-check) when
	// the registry is nil.
	telStarved, telTruncated, telSkipped *telemetry.Counter
	telOcc                               *telemetry.Gauge
}

// newQueue builds receive queue i over a positioned pcap reader: its
// frame source and the worker that drains it into sketch.
func newQueue[S Sketch[S]](cfg ReplayConfig, i int, r *pcap.Reader, sketch S) (*frames, *worker[S, record]) {
	reg := cfg.Telemetry
	q := &frames{
		buf:          make([]byte, cfg.SlotCap),
		slots:        cfg.PoolSlots,
		ring:         ovs.NewRingOf[record](cfg.PoolSlots),
		reader:       r,
		recs:         make([]record, 0, DefaultBurst),
		wake:         make(chan struct{}, 1),
		resumeAt:     cfg.PoolSlots - max(1, cfg.PoolSlots/4),
		telStarved:   reg.Counter("ingest.pool_starved"),
		telTruncated: reg.Counter("ingest.truncated"),
		telSkipped:   reg.Counter("ingest.skipped"),
		telOcc:       reg.Gauge(fmt.Sprintf("ingest.pool_occupancy.q%d", i)),
	}
	return q, newWorker(q.ring, sketch, q, cfg.Bytes, reg.Histogram("ingest.batch_size"), nil)
}

// inFlight returns the number of records pushed and not yet released.
func (q *frames) inFlight() int { return int(q.read.Load() - q.released.Load()) }

// readBurst reads and keys frames until it holds as many records as
// the in-flight bound allows, one burst at most, and pushes them into
// the ring (spinning on a full ring, which a PoolSlots-sized ring
// makes unreachable). Frames the extractor rejects are counted and
// read past. It returns the number of records pushed; zero with
// q.done still false means PoolSlots records are in flight and the
// caller should park and retry.
func (q *frames) readBurst() (int, error) {
	want := min(DefaultBurst, q.slots-q.inFlight())
	recs := q.recs[:0]
	var truncated, skipped uint64
	for len(recs) < want {
		n, capLen, origLen, err := q.reader.ReadFrame(q.buf)
		if err == io.EOF {
			q.done = true
			break
		}
		if err != nil {
			return 0, err
		}
		if capLen > n {
			truncated++
		}
		key, ok := packet.ExtractFiveTuple(q.buf[:n])
		if !ok {
			skipped++
			continue
		}
		recs = append(recs, record{key: key, orig: uint32(origLen)})
	}
	q.truncated += truncated
	q.telTruncated.Add(truncated)
	q.skipped += skipped
	q.telSkipped.Add(skipped)
	q.recs = recs
	q.send()
	return len(recs), nil
}

// send pushes the gathered records into the ring, where they count as
// in flight, and empties the gather buffer.
func (q *frames) send() {
	q.read.Add(uint64(len(q.recs)))
	push(q.ring, q.recs, false, nil)
	q.recs = q.recs[:0]
	q.telOcc.Set(int64(q.inFlight()))
}

// readAll feeds the ring until the capture is exhausted, parking while
// PoolSlots records are in flight. It closes the ring on every path,
// so the worker drains what was pushed and exits.
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

// split feeds every queue from the one capture qs[0] reads: each frame
// is keyed once and its record goes to the queue flowkey.RSSIndex
// picks, the steering pcap.PartitionRSS applies, so queue i's worker
// inserts exactly the keys it would after a partition pass, in capture
// order, and the capture is never held in memory. A queue sends its
// records a burst at a time, or sooner when they would fill its
// in-flight bound, and the reader parks on a queue whose bound is
// full. Frames the extractor rejects count on queue 0. split closes
// every ring on every path.
func split(qs []*frames, seed uint64) error {
	src := qs[0]
	defer func() {
		src.telTruncated.Add(src.truncated)
		src.telSkipped.Add(src.skipped)
		for _, q := range qs {
			q.ring.Close()
		}
	}()
	for {
		n, capLen, origLen, err := src.reader.ReadFrame(src.buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if capLen > n {
			src.truncated++
		}
		key, ok := packet.ExtractFiveTuple(src.buf[:n])
		if !ok {
			src.skipped++
			continue
		}
		q := qs[flowkey.RSSIndex(key, seed, len(qs))]
		q.recs = append(q.recs, record{key: key, orig: uint32(origLen)})
		if len(q.recs) < DefaultBurst && q.inFlight()+len(q.recs) < q.slots {
			continue
		}
		q.send()
		if q.inFlight() >= q.slots {
			q.park()
		}
	}
	for _, q := range qs {
		q.send()
	}
	return nil
}

// park blocks the reader, with PoolSlots records in flight, until the
// worker has inserted a quarter of them. Blocking, not yielding: a
// reader that loops on runtime.Gosched keeps its P's run queue busy,
// so the scheduler skips its network poll (DESIGN.md §13). Both sides
// write before they check — the reader sets waiting then reads
// released, the worker advances released then reads waiting — so one
// of them always sees the other and no wake-up is lost.
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

// fill copies the burst's keys, and their original lengths as byte
// weights, out of the popped records.
func (q *frames) fill(recs []record, keys []flowkey.FiveTuple, ws []uint64) {
	for j := range recs {
		keys[j] = recs[j].key
	}
	if ws != nil {
		for j := range recs {
			ws[j] = uint64(recs[j].orig)
		}
	}
}

// release counts the burst's keys as inserted and wakes a parked
// reader once a quarter of the in-flight bound is free.
func (q *frames) release(recs []record) {
	released := q.released.Add(uint64(len(recs)))
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

// replay runs queues worker goroutines to completion, fed by one
// reader goroutine per queue when readers holds one per queue, or by
// one that splits readers[0] across the queues. One queue's sketch is
// the result; more are merged (newSketch follows the New contract).
// cfg must be normalized.
func replay[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, readers []*pcap.Reader, queues int) (S, ReplayStats, error) {
	qs := make([]*frames, queues)
	workers := make([]*worker[S, record], queues)
	for i := range qs {
		var r *pcap.Reader
		if i < len(readers) {
			r = readers[i]
		}
		qs[i], workers[i] = newQueue(cfg, i, r, newSketch(i))
	}
	feeds := make([]func() error, len(readers))
	for i := range feeds {
		feeds[i] = qs[i].readAll
	}
	if len(readers) < queues {
		feeds[0] = func() error { return split(qs, cfg.Seed) }
	}
	var wg sync.WaitGroup
	errs := make([]error, len(feeds))
	wg.Add(len(feeds) + len(workers))
	for i, feed := range feeds {
		go func() {
			defer wg.Done()
			errs[i] = feed()
		}()
	}
	for _, w := range workers {
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()

	st := ReplayStats{Queues: len(qs)}
	for i, q := range qs {
		st.Packets += workers[i].consumed.Load()
		st.Skipped += q.skipped
		st.Truncated += q.truncated
		st.Starved += q.starved
	}
	var zero S
	for i, err := range errs {
		if err != nil {
			return zero, st, fmt.Errorf("shard: replay queue %d: %w", i, err)
		}
	}
	if len(workers) == 1 {
		return workers[0].sketch, st, nil
	}
	merged, err := combine(newSketch, workers)
	return merged, st, err
}

// ReplayQueues replays pre-partitioned receive queues through the
// pooled pipeline, one reader/worker pair per queue, and returns one
// sketch (newSketch follows the New contract: indices
// 0..len(queues)-1 build queue sketches, and with more than one queue
// index len(queues) builds the target they merge into; one queue's
// sketch is returned as it is). Use pcap.PartitionRSS with the same
// seed and queue count as a comparison Engine to get bit-identical
// sketch state — queue i's packets are exactly worker i's packets.
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
	return replay(normalizeReplay(cfg), newSketch, readers, len(readers))
}

// ReplayPCAP replays one raw pcap stream through the pooled pipeline.
// One reader reads the stream once; with Queues > 1 it steers each
// keyed frame to the queue pcap.PartitionRSS would put it in, so the
// queues' workers insert what they would after a partition pass, while
// memory stays bounded by the queues, not the capture.
func ReplayPCAP[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, r io.Reader) (S, ReplayStats, error) {
	cfg = normalizeReplay(cfg)
	var zero S
	pr, err := pcap.NewReader(r)
	if err != nil {
		return zero, ReplayStats{}, err
	}
	if lt := pr.LinkType(); lt != pcap.LinkTypeEthernet {
		return zero, ReplayStats{}, fmt.Errorf("shard: replay supports only Ethernet captures, got link type %d", lt)
	}
	return replay(cfg, newSketch, []*pcap.Reader{pr}, max(cfg.Queues, 1))
}

// ReplayPCAPBasic is ReplayPCAP specialized to basic CocoSketch
// workers, with the same per-queue seeding and shared telemetry scheme
// as NewBasic — so an N-queue replay reproduces an N-worker Engine's
// merged sketch bit for bit when seeds match, and a one-queue replay
// returns the state, RNG included, of one sequential sketch fed the
// capture's keys.
func ReplayPCAPBasic(cfg ReplayConfig, sketchCfg core.Config, r io.Reader) (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
	return ReplayPCAP(cfg, NewBasicFactory(sketchCfg, cfg.Telemetry), r)
}

package shard

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// This file is the zero-allocation ingest pipeline. Each simulated
// receive queue is a ring of key and wire-length slots and a worker
// that inserts the keys straight from the slots (InsertBatch →
// release). A feed fills the queues: a pcap reader per queue (pcap
// record → ReadFrame's header-sized view of the reader's block buffer →
// 5-tuple via packet.ExtractFiveTuple), or one pcap reader or one
// in-memory packet slice whose records steer writes into the slots of
// the queue the RSS hash picks. At most PoolSlots records are in
// flight per queue; when that many are, the feed parks until the
// worker has inserted a quarter of them, instead of allocating or
// dropping — the protocol of DESIGN.md §13.

// ReplayConfig parameterizes a pooled replay run.
type ReplayConfig struct {
	// Queues is the number of simulated NIC receive queues, each with a
	// worker goroutine (default 1). ReplayPCAP and ReplayPackets feed
	// them all from one goroutine; ReplayQueues, which takes its queue
	// count from its queues, gives each its own reader.
	Queues int
	// PoolSlots bounds the records in flight per queue: records the
	// feed has written into the queue's slots whose keys the worker has
	// not yet inserted (default DefaultPoolSlots). When that many are in
	// flight the feed waits, it never allocates or drops. The queue's
	// ring has at least as many slots, so the bound is the single
	// backpressure signal, and a slot the feed filled is the worker's
	// until it has inserted the key.
	PoolSlots int
	// SlotCap bounds the bytes of each record the reader hands to the
	// key extractor (default DefaultSlotCap): a view of at most SlotCap
	// bytes of the pcap reader's block buffer. Records longer than
	// SlotCap are truncated on read, NIC snapshot-length style, and
	// counted in ReplayStats. Byte weights come from the record's original length,
	// so only a SlotCap below packet.MaxKeyHeaderLen can change what is
	// measured.
	SlotCap int
	// Seed drives the RSS split when a stream is steered into queues;
	// runs that agree on Seed and Queues split a stream identically,
	// as pcap.PartitionRSS does with the same seed.
	Seed uint64
	// Bytes weights each packet by its original wire length (a
	// trace.Packet's Size) instead of counting packets.
	Bytes bool
	// Telemetry, when non-nil, receives the pipeline's burst-level
	// metrics (the "ingest." names in DESIGN.md §11).
	Telemetry *telemetry.Registry
}

// DefaultPoolSlots is the per-queue in-flight bound when ReplayConfig
// leaves PoolSlots zero: 80 KB of slots per queue. A parked feed resumes
// with three quarters of the bound still queued, and that slack must
// outlast the tens of microseconds a woken feed takes to run again, or
// the worker runs dry after every park (DESIGN.md §13).
const DefaultPoolSlots = 4096

// DefaultSlotCap is the reader's frame view bound when ReplayConfig
// leaves SlotCap zero: the headers, not the payload. The replay reads
// nothing past the L4 ports, and the deepest header stack the
// extractor accepts is packet.MaxKeyHeaderLen (138) bytes, so no
// frame's key or acceptance depends on the bytes a 192-byte view
// leaves out (DESIGN.md §13).
const DefaultSlotCap = 192

// ReplayStats summarizes a finished replay.
type ReplayStats struct {
	// Queues is the number of receive queues replayed.
	Queues int
	// Packets counts records inserted into the sketches.
	Packets uint64
	// Skipped counts frames the extractor rejected (non-IP, truncated
	// headers) — steered to queue 0, as PartitionRSS does, and dropped
	// by the reader, mirroring how trace.FromPCAP skips them.
	Skipped uint64
	// Truncated counts records longer than SlotCap, read as a
	// SlotCap-byte prefix. At the default SlotCap that is every frame
	// whose payload was dropped, not a loss: keys and byte weights are
	// unchanged.
	Truncated uint64
	// Starved counts feed parks: each time the feed found PoolSlots
	// records in flight and blocked until the worker had inserted a
	// quarter of them. One stall counts once, however long it lasts
	// (backpressure events, not lost packets).
	Starved uint64
}

// frames is one receive queue: a ring of slots that the queue owns,
// one key and one original wire length (the frame's byte weight) per
// slot. The feed side (readBurst, readAll, steer, park) belongs to the
// feed goroutine; release runs on the queue's worker goroutine. Feeding
// and draining are plain steps so a single goroutine can alternate them
// — that is how the zero-allocation property is pinned by
// testing.AllocsPerRun.
type frames struct {
	keys   []flowkey.FiveTuple // the slots: power-of-two length ≥ slots
	orig   []uint32
	mask   uint64       // len(keys) - 1
	limit  int          // SlotCap, the bound on a frame view
	slots  int          // PoolSlots, the in-flight bound
	reader *pcap.Reader // nil unless a capture is read on this queue

	// The ring's tail and head: read counts records the feed has
	// published, released those whose keys the worker has inserted.
	// Slot i&mask for released ≤ i < read is the worker's; every other
	// slot is the feed's. Each side advances its index once per burst.
	read, released atomic.Uint64
	closed         atomic.Bool // the feed has published its last record

	// The park handshake. A starved feed sets waiting, re-checks
	// the in-flight count and blocks on wake; the worker, after
	// releasing a burst, claims waiting and sends once at most
	// resumeAt frames are in flight (at least a quarter of the bound
	// free).
	waiting  atomic.Bool
	wake     chan struct{}
	resumeAt int

	// Feed-side state, read by others only after the join. It sits a
	// cache line past the indices the worker polls, because steer
	// writes gathered once per record.
	_                           [64]byte
	gathered                    int // records written past read, not yet published
	done                        bool
	starved, truncated, skipped uint64

	// Telemetry instruments, all nil (each record a nil-check) when
	// the registry is nil.
	telStarved, telTruncated, telSkipped *telemetry.Counter
	telOcc                               *telemetry.Gauge
}

// newQueue builds receive queue i, reading r (nil when no capture is
// read on this queue), and the worker that drains it into sketch.
func newQueue[S Sketch[S]](cfg ReplayConfig, i int, r *pcap.Reader, sketch S) (*frames, *worker[S]) {
	reg := cfg.Telemetry
	n := 1 << bits.Len(uint(cfg.PoolSlots-1)) // the least power of two ≥ PoolSlots
	q := &frames{
		keys:         make([]flowkey.FiveTuple, n),
		orig:         make([]uint32, n),
		mask:         uint64(n - 1),
		limit:        cfg.SlotCap,
		slots:        cfg.PoolSlots,
		reader:       r,
		wake:         make(chan struct{}, 1),
		resumeAt:     cfg.PoolSlots - max(1, cfg.PoolSlots/4),
		telStarved:   reg.Counter("ingest.pool_starved"),
		telTruncated: reg.Counter("ingest.truncated"),
		telSkipped:   reg.Counter("ingest.skipped"),
		telOcc:       reg.Gauge(fmt.Sprintf("ingest.pool_occupancy.q%d", i)),
	}
	return q, newWorker(q, sketch, cfg.Bytes, reg.Histogram("ingest.batch_size"), reg.Counter("ingest.consumed"))
}

// inFlight returns the number of records published and not yet
// released.
func (q *frames) inFlight() int { return int(q.read.Load() - q.released.Load()) }

// readBurst reads and keys frames until it has written as many records
// into the slots as the in-flight bound allows, one burst at most, and
// publishes them. Frames the extractor rejects are counted and read
// past. It returns the number of records published; zero with q.done
// still false means PoolSlots records are in flight and the caller
// should park and retry.
func (q *frames) readBurst() (int, error) {
	tail := q.read.Load()
	want := min(DefaultBurst, q.slots-int(tail-q.released.Load()))
	keys, orig, mask := q.keys, q.orig, q.mask
	n := 0
	var truncated, skipped uint64
	for n < want {
		frame, capLen, origLen, err := q.reader.ReadFrame(q.limit)
		if err == io.EOF {
			q.done = true
			break
		}
		if err != nil {
			return 0, err
		}
		if capLen > len(frame) {
			truncated++
		}
		key, ok := packet.ExtractFiveTuple(frame)
		if !ok {
			skipped++
			continue
		}
		i := (tail + uint64(n)) & mask
		keys[i], orig[i] = key, uint32(origLen)
		n++
	}
	q.truncated += truncated
	q.telTruncated.Add(truncated)
	q.skipped += skipped
	q.telSkipped.Add(skipped)
	q.gathered = n
	q.send()
	return n, nil
}

// send publishes the gathered records: from now on their slots are the
// worker's, and they count as in flight.
func (q *frames) send() {
	q.read.Add(uint64(q.gathered))
	q.gathered = 0
	q.telOcc.Set(int64(q.inFlight()))
}

// close publishes what is gathered and marks the feed done, so the
// worker drains what was published and exits.
func (q *frames) close() {
	q.send()
	q.closed.Store(true)
}

// readAll feeds the queue until the capture is exhausted, parking while
// PoolSlots records are in flight. It closes the queue on every path.
func (q *frames) readAll() error {
	defer q.close()
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

// steer writes key and its original length orig into the next slot of
// the queue flowkey.RSSIndex picks, the steering pcap.PartitionRSS
// applies, so queue i's worker inserts exactly the keys it would after
// a partition pass, in input order. A queue publishes its records a
// burst at a time, or sooner when they would fill its in-flight bound.
// steer returns the queue whose bound is then full, for the feed to
// park on, and nil otherwise.
func steer(qs []*frames, seed uint64, key flowkey.FiveTuple, orig uint32) *frames {
	q := qs[flowkey.RSSIndex(key, seed, len(qs))]
	// The slot is free: the bound kept in-flight plus gathered records
	// below PoolSlots, which the ring's length is at least.
	tail := q.read.Load()
	i := (tail + uint64(q.gathered)) & q.mask
	q.keys[i], q.orig[i] = key, orig
	q.gathered++
	if q.gathered < DefaultBurst && int(tail-q.released.Load())+q.gathered < q.slots {
		return nil
	}
	q.send()
	if q.inFlight() < q.slots {
		return nil
	}
	return q
}

// finish publishes what every queue has gathered and closes it, so its
// worker drains what was steered and exits.
func finish(qs []*frames) {
	for _, q := range qs {
		q.close()
	}
}

// split feeds every queue from the one capture qs[0] reads: each frame
// is keyed once and steered, so the capture is never held in memory.
// Frames the extractor rejects count on queue 0. split closes every
// queue on every path.
func split(qs []*frames, seed uint64) error {
	src := qs[0]
	defer func() {
		src.telTruncated.Add(src.truncated)
		src.telSkipped.Add(src.skipped)
		finish(qs)
	}()
	for {
		frame, capLen, origLen, err := src.reader.ReadFrame(src.limit)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if capLen > len(frame) {
			src.truncated++
		}
		key, ok := packet.ExtractFiveTuple(frame)
		if !ok {
			src.skipped++
			continue
		}
		if q := steer(qs, seed, key, uint32(origLen)); q != nil {
			q.park()
		}
	}
}

// feedPackets steers in-memory packets, each weighted by its Size,
// into the queues, then closes every queue.
func feedPackets(qs []*frames, seed uint64, ps []trace.Packet) {
	defer finish(qs)
	for i := range ps {
		if q := steer(qs, seed, ps[i].Key, ps[i].Size); q != nil {
			q.park()
		}
	}
}

// park blocks the feed, with PoolSlots records in flight, until the
// worker has inserted a quarter of them. Blocking, not yielding: a
// feed that loops on runtime.Gosched keeps its P's run queue busy,
// so the scheduler skips its network poll (DESIGN.md §13). Both sides
// write before they check — the feed sets waiting then reads
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

// release hands n more slots back to the feed once their keys are
// inserted, and wakes a parked feed once a quarter of the in-flight
// bound is free.
func (q *frames) release(n int) {
	released := q.released.Add(uint64(n))
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

// newQueues builds n receive queues with their workers; queue i reads
// readers[i] when there is one. cfg must be normalized.
func newQueues[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, n int, readers ...*pcap.Reader) ([]*frames, []*worker[S]) {
	qs := make([]*frames, n)
	workers := make([]*worker[S], n)
	for i := range qs {
		var r *pcap.Reader
		if i < len(readers) {
			r = readers[i]
		}
		qs[i], workers[i] = newQueue(cfg, i, r, newSketch(i))
	}
	return qs, workers
}

// replay runs the feeds, one goroutine each, and one worker goroutine
// per queue to completion. One queue's sketch is the result; more are
// merged (newSketch follows the ReplayQueues contract).
func replay[S Sketch[S]](newSketch func(i int) S, qs []*frames, workers []*worker[S], feeds ...func() error) (S, ReplayStats, error) {
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
	for _, q := range qs {
		st.Packets += q.released.Load()
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
// sketch. newSketch is called with indices 0..len(queues)-1 to build
// the queue sketches and, with more than one queue, once more with
// index len(queues) to build the target they merge into, in queue
// order; one queue's sketch is returned as it is. All its sketches
// must be merge-compatible (in core terms, built from one Config), and
// index 0 must start in the state of a sequential sketch for one queue
// to reproduce sequential inserts (NewBasicFactory arranges both).
// Use pcap.PartitionRSS with the same seed and queue count as another
// run to get bit-identical sketch state — queue i's packets are
// exactly that run's queue i packets.
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
	qs, workers := newQueues(normalizeReplay(cfg), newSketch, len(readers), readers...)
	feeds := make([]func() error, len(qs))
	for i, q := range qs {
		feeds[i] = q.readAll
	}
	return replay(newSketch, qs, workers, feeds...)
}

// ReplayPCAP replays one raw pcap stream through the pooled pipeline.
// One reader reads the stream once; with Queues > 1 it steers each
// keyed frame to the queue pcap.PartitionRSS would put it in, so the
// queues' workers insert what they would after a partition pass, while
// memory stays bounded by the queues, not the capture. newSketch
// follows the ReplayQueues contract.
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
	qs, workers := newQueues(cfg, newSketch, max(cfg.Queues, 1), pr)
	if len(qs) == 1 {
		return replay(newSketch, qs, workers, qs[0].readAll)
	}
	return replay(newSketch, qs, workers, func() error { return split(qs, cfg.Seed) })
}

// ReplayPCAPBasic is ReplayPCAP specialized to basic CocoSketch
// workers built by NewBasicFactory, so an N-queue replay reproduces
// any other N-queue run's merged sketch bit for bit when seeds match,
// and a one-queue replay returns the state, RNG included, of one
// sequential sketch fed the capture's keys.
func ReplayPCAPBasic(cfg ReplayConfig, sketchCfg core.Config, r io.Reader) (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
	return ReplayPCAP(cfg, NewBasicFactory(sketchCfg, cfg.Telemetry), r)
}

// ReplayPackets replays an in-memory packet stream through the pooled
// pipeline: one feed goroutine steers each packet's key, weighted by
// its Size in byte mode, to the queue ReplayPCAP's reader would steer
// its frame to, under the same in-flight bound. So the packets
// trace.FromPCAP decodes from a capture build the sketch ReplayPCAP
// builds from it at the same Seed and Queues, and one queue builds the
// sketch sequential inserts do. newSketch follows the ReplayQueues
// contract; the only error is a failed merge.
func ReplayPackets[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, ps []trace.Packet) (S, ReplayStats, error) {
	cfg = normalizeReplay(cfg)
	qs, workers := newQueues(cfg, newSketch, max(cfg.Queues, 1))
	return replay(newSketch, qs, workers, func() error {
		feedPackets(qs, cfg.Seed, ps)
		return nil
	})
}

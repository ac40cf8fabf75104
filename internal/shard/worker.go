package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/ovs"
	"cocosketch/internal/telemetry"
)

// source is the per-burst step that differs between the two ingest
// sources: the Engine queues decoded trace.Packet records, a replay
// queue's pcap reader queues the keyed records it extracted from its
// frames. A worker calls each method once per burst, never once per
// packet.
type source[T any] interface {
	// fill writes the keys of burst to keys and, when ws is non-nil,
	// their weights to ws.
	fill(burst []T, keys []flowkey.FiveTuple, ws []uint64)
	// release runs after the insert has returned: a replay counts a
	// frame in flight until its key is in the sketch (DESIGN.md §13).
	release(burst []T)
}

// worker is one consumer: an SPSC ring, the private sketch it feeds,
// and its progress counter.
type worker[S Sketch[S], T any] struct {
	ring   *ovs.RingOf[T]
	sketch S
	src    source[T]
	buf    []T
	keys   []flowkey.FiveTuple
	ws     []uint64 // nil unless byte-weighted

	// consumed counts inserted packets; Engine.Stats reads it live.
	consumed atomic.Uint64
	// pause carries a snapshot barrier for this worker to join.
	pause atomic.Pointer[pauseReq]

	telBatch    *telemetry.Histogram
	telConsumed *telemetry.Counter
}

// newWorker builds a worker draining ring into sketch through src,
// byte-weighted when bytes is set. Nil instruments record nothing.
func newWorker[S Sketch[S], T any](ring *ovs.RingOf[T], sketch S, src source[T], bytes bool,
	batch *telemetry.Histogram, consumed *telemetry.Counter) *worker[S, T] {
	w := &worker[S, T]{
		ring:        ring,
		sketch:      sketch,
		src:         src,
		buf:         make([]T, DefaultBurst),
		keys:        make([]flowkey.FiveTuple, DefaultBurst),
		telBatch:    batch,
		telConsumed: consumed,
	}
	if bytes {
		w.ws = make([]uint64, DefaultBurst)
	}
	return w
}

// drain pops one burst, inserts its keys with one batched call, and
// releases it once the insert has returned. It returns the number of
// elements popped, zero when the ring is empty.
func (w *worker[S, T]) drain() int {
	n := w.ring.TryPopN(w.buf)
	if n == 0 {
		return 0
	}
	w.src.fill(w.buf[:n], w.keys, w.ws)
	if w.ws != nil {
		w.sketch.InsertBatch(w.keys[:n], w.ws[:n])
	} else {
		w.sketch.InsertBatchUnit(w.keys[:n])
	}
	w.src.release(w.buf[:n])
	w.consumed.Add(uint64(n))
	w.telConsumed.Add(uint64(n))
	w.telBatch.Observe(uint64(n))
	return n
}

// run drains the ring until the producer has closed it and it is
// empty, yielding while it is momentarily empty and joining any
// snapshot barrier between bursts.
func (w *worker[S, T]) run() {
	for {
		if w.pause.Load() != nil {
			req := w.pause.Swap(nil)
			req.arrived.Done()
			<-req.release
		}
		if w.drain() > 0 {
			continue
		}
		if !w.ring.Closed() {
			runtime.Gosched()
			continue
		}
		// Close is published after the final push; one more poll
		// drains a push that raced the empty check.
		if w.drain() == 0 {
			return
		}
	}
}

// combine merges the worker sketches, in worker order, into a fresh
// target built by newSketch(len(workers)) — the merge index of the New
// contract. Callers guarantee the workers are quiescent.
func combine[S Sketch[S], T any](newSketch func(i int) S, workers []*worker[S, T]) (S, error) {
	target := newSketch(len(workers))
	for i, w := range workers {
		if err := target.Merge(w.sketch); err != nil {
			return target, fmt.Errorf("shard: merging worker %d: %w", i, err)
		}
	}
	return target, nil
}

// push moves burst into ring, yielding while the ring is full — or,
// with drop, discarding what does not fit at the first full ring. It
// returns the number of elements dropped.
func push[T any](ring *ovs.RingOf[T], burst []T, drop bool, fail *telemetry.Counter) uint64 {
	for off := 0; off < len(burst); {
		off += ring.TryPushN(burst[off:])
		if off < len(burst) {
			fail.Inc()
			if drop {
				return uint64(len(burst) - off)
			}
			runtime.Gosched()
		}
	}
	return 0
}

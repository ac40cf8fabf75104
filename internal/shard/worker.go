package shard

import (
	"fmt"
	"runtime"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
)

// worker is one consumer: the receive queue whose ring it drains and
// the private sketch it feeds.
type worker[S Sketch[S]] struct {
	q      *frames
	sketch S
	buf    []record
	keys   []flowkey.FiveTuple
	ws     []uint64 // nil unless byte-weighted

	telBatch    *telemetry.Histogram
	telConsumed *telemetry.Counter
}

// newWorker builds a worker draining q into sketch, byte-weighted when
// bytes is set. Nil instruments record nothing.
func newWorker[S Sketch[S]](q *frames, sketch S, bytes bool,
	batch *telemetry.Histogram, consumed *telemetry.Counter) *worker[S] {
	w := &worker[S]{
		q:           q,
		sketch:      sketch,
		buf:         make([]record, DefaultBurst),
		keys:        make([]flowkey.FiveTuple, DefaultBurst),
		telBatch:    batch,
		telConsumed: consumed,
	}
	if bytes {
		w.ws = make([]uint64, DefaultBurst)
	}
	return w
}

// drain pops one burst, inserts its keys with one batched call —
// weighted by the records' original lengths in byte mode — and
// releases it once the insert has returned. It returns the number of
// records popped, zero when the ring is empty.
func (w *worker[S]) drain() int {
	n := w.q.ring.TryPopN(w.buf)
	if n == 0 {
		return 0
	}
	// Copying through local slices keeps the loops from reloading the
	// worker's slice headers on every record.
	recs, keys := w.buf[:n], w.keys[:n]
	for j := range recs {
		keys[j] = recs[j].key
	}
	if w.ws != nil {
		ws := w.ws[:n]
		for j := range recs {
			ws[j] = uint64(recs[j].orig)
		}
		w.sketch.InsertBatch(keys, ws)
	} else {
		w.sketch.InsertBatchUnit(keys)
	}
	w.q.release(n)
	w.telConsumed.Add(uint64(n))
	w.telBatch.Observe(uint64(n))
	return n
}

// run drains the ring until the feed has closed it and it is empty,
// yielding while it is momentarily empty.
func (w *worker[S]) run() {
	for {
		if w.drain() > 0 {
			continue
		}
		if !w.q.ring.Closed() {
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

// combine merges the worker sketches, in queue order, into a fresh
// target built by newSketch(len(workers)) — the merge index of the
// ReplayQueues contract. Callers guarantee the workers have exited.
func combine[S Sketch[S]](newSketch func(i int) S, workers []*worker[S]) (S, error) {
	target := newSketch(len(workers))
	for i, w := range workers {
		if err := target.Merge(w.sketch); err != nil {
			return target, fmt.Errorf("shard: merging worker %d: %w", i, err)
		}
	}
	return target, nil
}

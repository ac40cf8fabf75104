package shard

import (
	"fmt"
	"runtime"

	"cocosketch/internal/telemetry"
)

// worker is one consumer: the receive queue whose slots it drains and
// the private sketch it feeds.
type worker[S Sketch[S]] struct {
	q      *frames
	sketch S
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
		telBatch:    batch,
		telConsumed: consumed,
	}
	if bytes {
		w.ws = make([]uint64, DefaultBurst)
	}
	return w
}

// drain inserts the keys of at most one burst of published records
// with one batched call, straight from the queue's slots — weighted by
// the records' original lengths in byte mode — and releases the slots
// once the insert has returned. A burst stops at the ring's end, so the
// keys are one slice. It returns the number of records inserted, zero
// when none are published.
func (w *worker[S]) drain() int {
	q := w.q
	head := q.released.Load()
	n := int(min(q.read.Load()-head, DefaultBurst))
	if n == 0 {
		return 0
	}
	i := int(head & q.mask)
	n = min(n, len(q.keys)-i)
	keys := q.keys[i : i+n]
	if w.ws != nil {
		// Local slices keep the loop from reloading the slice headers
		// on every record.
		ws, orig := w.ws[:n], q.orig[i:i+n]
		for j := range ws {
			ws[j] = uint64(orig[j])
		}
		w.sketch.InsertBatch(keys, ws)
	} else {
		w.sketch.InsertBatchUnit(keys)
	}
	q.release(n)
	w.telConsumed.Add(uint64(n))
	w.telBatch.Observe(uint64(n))
	return n
}

// run drains the queue until the feed has closed it and every record
// is inserted, yielding while none is published.
func (w *worker[S]) run() {
	for {
		if w.drain() > 0 {
			continue
		}
		if !w.q.closed.Load() {
			runtime.Gosched()
			continue
		}
		// Close is published after the final records; one more poll
		// drains records published between the empty check and it.
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

// Package ovs provides the single-producer single-consumer ring of the
// paper's Open vSwitch integration (§B), where the datapath writes
// packet headers into shared ring buffers and measurement threads poll
// them. It is a general ring that copies elements in and out; package
// shard's replay queues do not use it, since each keeps its own ring
// of key slots that its worker inserts from in place. The cocoperf
// benchmark's ledger times this ring as its ovs.ring probe.
package ovs

import "sync/atomic"

// RingOf is a single-producer single-consumer lock-free ring buffer,
// mirroring the DPDK rings between the OVS datapath and the
// measurement process. The element type is anything small enough to
// copy by value.
//
// Each side keeps a private snapshot of the opposite index (headCache
// for the producer, tailCache for the consumer) and refreshes it only
// when the ring looks full/empty against the snapshot — the standard
// DPDK cached-index optimization that cuts cross-core cache-line
// traffic from one load per operation to roughly one per ring
// traversal.
type RingOf[T any] struct {
	buf  []T
	mask uint64
	_    [40]byte // keep producer and consumer state on separate cache lines
	// Producer cache line: the write index plus the producer's
	// snapshot of head.
	tail      atomic.Uint64
	headCache uint64
	_         [48]byte
	// Consumer cache line: the read index plus the consumer's
	// snapshot of tail.
	head      atomic.Uint64
	tailCache uint64
	_         [48]byte
	closed    atomic.Bool
}

// NewRingOf returns a ring of T with capacity rounded up to a power of
// two (minimum 2).
func NewRingOf[T any](capacity int) *RingOf[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &RingOf[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Capacity returns the usable slot count.
func (r *RingOf[T]) Capacity() int { return len(r.buf) }

// TryPush appends one element; it fails when the ring is full. Only
// one goroutine may push.
func (r *RingOf[T]) TryPush(p T) bool {
	tail := r.tail.Load()
	if tail-r.headCache >= uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if tail-r.headCache >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[tail&r.mask] = p
	r.tail.Store(tail + 1)
	return true
}

// TryPushN appends as many of ps as fit and returns the count (0 when
// the ring is full). Slots are claimed with one index publication for
// the whole burst. Only one goroutine may push.
func (r *RingOf[T]) TryPushN(ps []T) int {
	tail := r.tail.Load()
	free := uint64(len(r.buf)) - (tail - r.headCache)
	if free < uint64(len(ps)) {
		r.headCache = r.head.Load()
		free = uint64(len(r.buf)) - (tail - r.headCache)
	}
	n := len(ps)
	if uint64(n) > free {
		n = int(free)
	}
	for i := 0; i < n; i++ {
		r.buf[(tail+uint64(i))&r.mask] = ps[i]
	}
	if n > 0 {
		r.tail.Store(tail + uint64(n))
	}
	return n
}

// TryPop removes one element; it fails when the ring is empty. Only
// one goroutine may pop.
func (r *RingOf[T]) TryPop(out *T) bool {
	head := r.head.Load()
	if head == r.tailCache {
		r.tailCache = r.tail.Load()
		if head == r.tailCache {
			return false
		}
	}
	*out = r.buf[head&r.mask]
	r.head.Store(head + 1)
	return true
}

// TryPopN removes up to len(out) elements and returns the count (0
// when the ring is empty). Only one goroutine may pop.
func (r *RingOf[T]) TryPopN(out []T) int {
	head := r.head.Load()
	avail := r.tailCache - head
	if avail < uint64(len(out)) {
		r.tailCache = r.tail.Load()
		avail = r.tailCache - head
	}
	n := len(out)
	if uint64(n) > avail {
		n = int(avail)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(head+uint64(i))&r.mask]
	}
	if n > 0 {
		r.head.Store(head + uint64(n))
	}
	return n
}

// Close marks the producer side done; consumers drain and stop.
func (r *RingOf[T]) Close() { r.closed.Store(true) }

// Closed reports whether the producer finished. A consumer should stop
// only when Closed and a subsequent TryPop fails.
func (r *RingOf[T]) Closed() bool { return r.closed.Load() }

// Len reports the queued element count (approximate under concurrency).
func (r *RingOf[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

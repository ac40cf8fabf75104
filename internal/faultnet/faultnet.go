// Package faultnet is a deterministic, seeded, simulated network for
// chaos-testing the network-wide plane (internal/netwide). It
// implements net.Conn and net.Listener over an in-process virtual
// clock and injects configurable faults — latency, jitter, bandwidth
// caps, chunk drops, partial writes, connection resets, reordering and
// full partitions — from per-link SplitMix64 streams derived from a
// single seed, so every scenario is reproducible: same seed, same
// fault schedule, same transcript. No wall-clock sleeps anywhere; a
// year of simulated backoff costs microseconds of test time.
//
// # Virtual time
//
// The network owns a virtual clock. Blocking operations (Read with no
// deliverable data, Accept with no pending dial, Clock.Sleep) park the
// calling goroutine; when every registered actor is parked and none of
// them can make progress, the clock jumps to the earliest instant at
// which one can (a chunk's delivery time, a deadline, a sleep expiry).
// For this quiescence detection to work, every goroutine that touches
// the network MUST be spawned through (*Network).Go — including the
// collector's per-connection handlers (see netwide.Collector.SetSpawn).
// Goroutines outside Go may still call into the network (e.g. a test's
// main goroutine closing a listener), but they must not block on it
// while registered actors are running.
//
// # Determinism
//
// Fault decisions are drawn from per-link RNG streams keyed by
// (network seed, connection id, direction) and indexed by the link's
// own write-operation counter, so they do not depend on goroutine
// scheduling. Actors take turns: an actor runs until it blocks in the
// network (or returns), and only then is the turn handed on — to the
// longest-parked actor that can make progress at the current instant,
// or, when none can, to the first one a clock jump wakes. A new actor
// waits for its first turn like any parked one. So when several actors
// become runnable at the same virtual instant (both ends of a reset
// connection, a reader and a writer on a zero-latency link) they still
// act in one fixed order, and the whole event transcript is a pure
// function of (seed, Faults, workload) — provided actors block only on
// the network, never on each other through locks or channels.
package faultnet

import (
	"fmt"
	"sync"
	"time"

	"cocosketch/internal/xrand"
)

// Base is the fixed virtual epoch: every Network starts at this
// instant, so absolute deadlines computed from Now are deterministic.
var Base = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// Faults configures the injected failure modes. The zero value is a
// perfect network: zero latency, infinite bandwidth, no loss. All
// probabilities are in [0, 1] and are drawn once per write from the
// link's seeded stream.
type Faults struct {
	// Latency is the fixed one-way delivery delay per chunk.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per chunk.
	Jitter time.Duration
	// BandwidthBPS caps the link at this many bytes per (virtual)
	// second; chunks serialize behind each other like a real NIC.
	// Zero means infinite.
	BandwidthBPS int64
	// DropProb silently discards a written chunk (packet loss with no
	// retransmit — the write "succeeds" into the void).
	DropProb float64
	// ReorderProb delays a chunk by an extra ReorderDelay so later
	// chunks can overtake it. On a byte stream this models lower-layer
	// corruption (bytes arriving out of order with no reassembly): the
	// peer's protocol parser is expected to fail cleanly.
	ReorderProb float64
	// ReorderDelay is the overtaking window for reordered chunks.
	ReorderDelay time.Duration
	// PartialProb truncates a write: a strict prefix is delivered and
	// Write returns n < len(b) with an error, as io.Writer demands.
	PartialProb float64
	// ResetProb resets the connection on a write: both ends observe a
	// connection-reset error from then on, pending data is discarded.
	ResetProb float64
}

// Network is one simulated network: a virtual clock, a set of named
// listeners, and the fault configuration applied to every link. Safe
// for concurrent use by its registered actors.
type Network struct {
	mu   sync.Mutex
	cond *sync.Cond

	cfg    Faults
	seed   uint64
	now    time.Duration // virtual time since Base
	actors int           // live goroutines registered via Go
	wg     sync.WaitGroup

	waiters     []*waiter // parked goroutines, longest-parked first
	listeners   map[string]*Listener
	nextConnID  int
	partitioned bool
	transcript  []string
}

// waiter is one parked goroutine. ready reports whether it can make
// progress right now; wake computes the earliest virtual instant at
// which it could become ready (false = only an external event can
// unblock it). Both are closures evaluated fresh under the network
// lock — never cached values — so scheduling sees current state
// regardless of which goroutine runs it. released is set, under the
// lock, when the scheduler hands this waiter the turn.
type waiter struct {
	ready    func() bool
	wake     func() (time.Duration, bool)
	released bool
}

// New creates a network with the given fault configuration and seed.
func New(seed uint64, cfg Faults) *Network {
	n := &Network{
		cfg:       cfg,
		seed:      seed,
		listeners: make(map[string]*Listener),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// Go runs fn as a registered actor. The virtual clock can only advance
// while every registered actor is parked inside a network call, so all
// goroutines driving traffic must be started through Go. fn starts
// parked: it runs once the scheduler gives it its first turn, which is
// never while the caller (if it is an actor itself) still runs.
func (n *Network) Go(fn func()) {
	n.wg.Add(1)
	n.mu.Lock()
	n.actors++
	w := n.enqueue(func() bool { return true }, func() (time.Duration, bool) { return 0, false })
	n.schedule()
	n.mu.Unlock()
	go func() {
		defer func() {
			n.mu.Lock()
			n.actors--
			n.schedule()
			n.mu.Unlock()
			n.wg.Done()
		}()
		n.mu.Lock()
		for !w.released {
			n.cond.Wait()
		}
		n.mu.Unlock()
		fn()
	}()
}

// Wait blocks until every actor started with Go has returned.
func (n *Network) Wait() { n.wg.Wait() }

// Now returns the current virtual time (Base plus elapsed simulation
// time). Implements the netwide.Clock contract together with Sleep.
func (n *Network) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Base.Add(n.now)
}

// Sleep parks the caller for d of virtual time. It returns immediately
// for non-positive d.
func (n *Network) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	target := n.now + d
	n.park(func() bool { return n.now >= target },
		func() (time.Duration, bool) { return target, true })
}

// park blocks the caller until ready() is true and the scheduler hands
// it the turn. A caller that can progress at once keeps running: it is
// the only actor running, so nothing can interleave with it. wake()
// reports the earliest virtual instant at which the caller could
// become ready, or false if only an external event can unblock it.
// Must be called with n.mu held; ready and wake are evaluated under
// the lock.
func (n *Network) park(ready func() bool, wake func() (time.Duration, bool)) {
	if ready() {
		return
	}
	w := n.enqueue(ready, wake)
	n.schedule()
	for !w.released {
		n.cond.Wait()
	}
}

// enqueue parks a new waiter behind every earlier one. Caller holds
// n.mu.
func (n *Network) enqueue(ready func() bool, wake func() (time.Duration, bool)) *waiter {
	w := &waiter{ready: ready, wake: wake}
	n.waiters = append(n.waiters, w)
	return w
}

// schedule hands the turn on once no registered actor is running:
// to the longest-parked waiter that can progress now, else — the
// network is quiescent — it jumps the clock to the earliest wake-up
// among the waiters and tries again. If no waiter has a wake-up at
// all, only an external call (Close, a partition heal) can make
// progress, and that call schedules again. Every call that may make a
// waiter ready runs schedule; from a running actor it is a no-op, the
// actor's own next park hands the turn on. Caller holds n.mu.
func (n *Network) schedule() {
	if len(n.waiters) < n.actors {
		return // an actor is still running
	}
	for {
		for i, w := range n.waiters {
			if w.ready() {
				n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
				w.released = true
				n.cond.Broadcast()
				return
			}
		}
		t, ok := n.earliestWake()
		if !ok || t <= n.now {
			return
		}
		n.now = t
	}
}

// earliestWake returns the minimum wake instant over all parked
// waiters that have one, computed fresh from each waiter's closure.
func (n *Network) earliestWake() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, w := range n.waiters {
		if t, ok := w.wake(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
}

// SetPartitioned opens (true) or heals (false) a full network
// partition: while partitioned, every chunk written on any link is
// silently discarded and new dials are refused.
func (n *Network) SetPartitioned(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned = on
	n.log("network partition=%v", on)
	n.schedule()
}

// Transcript returns a copy of the event log: one line per write
// decision, connection lifecycle event and partition toggle, in the
// order they occurred. With a sequential driver the transcript is a
// pure function of (seed, Faults, workload).
func (n *Network) Transcript() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.transcript))
	copy(out, n.transcript)
	return out
}

// log appends one formatted transcript line. Caller holds n.mu.
func (n *Network) log(format string, args ...any) {
	n.transcript = append(n.transcript, fmt.Sprintf(format, args...))
}

// linkSeed derives the per-link RNG seed from the network seed, the
// connection id and the direction (0 = client→server, 1 = reverse).
func (n *Network) linkSeed(connID, dir int) uint64 {
	x := xrand.New(n.seed ^ (uint64(connID)<<1 | uint64(dir)) ^ 0xc0c0_5ce7_c4a0_5000)
	return x.Uint64()
}

package faultnet

import (
	"errors"
	"io"
	"net"
	"sort"
	"time"

	"cocosketch/internal/xrand"
)

// ErrClosed is returned by operations on a connection or listener the
// caller already closed.
var ErrClosed = errors.New("faultnet: use of closed connection")

// ErrReset is the injected connection-reset error: both ends of a
// reset connection observe it on every subsequent operation.
var ErrReset = errors.New("faultnet: connection reset")

// ErrPartialWrite is returned (with n < len(b)) when the partial-write
// fault truncates a write; the delivered prefix is in flight.
var ErrPartialWrite = errors.New("faultnet: partial write")

// ErrRefused is returned by Dial when no listener is bound to the
// address, the listener is closed, or the network is partitioned.
var ErrRefused = errors.New("faultnet: connection refused")

// timeoutError satisfies net.Error with Timeout() == true, matching
// what netwide's deadline handling expects from a real net.Conn.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the deadline-exceeded error for simulated connections.
var ErrTimeout net.Error = timeoutError{}

// addr is the trivial net.Addr of the simulated network.
type addr string

func (a addr) Network() string { return "faultnet" }
func (a addr) String() string  { return string(a) }

// chunk is one in-flight write: payload bytes and the virtual instant
// they become readable.
type chunk struct {
	at   time.Duration
	seq  uint64
	data []byte
}

// link is one direction of a connection: a queue of in-flight chunks
// ordered by delivery time (reordering makes that differ from write
// order), the writer's fault stream, and lifecycle flags. All fields
// are guarded by the network mutex.
type link struct {
	connID int
	dir    string // "c->s" or "s->c", for the transcript
	chunks []chunk
	seq    uint64
	writes uint64        // write-op counter (transcript index)
	busy   time.Duration // bandwidth serialization point
	lastAt time.Duration // FIFO floor: in-order chunks never beat it
	rng    *xrand.Source
	closed bool // writer closed; drain then EOF
	reset  bool
}

// deadline is an optional virtual-time instant.
type deadline struct {
	t   time.Duration
	has bool
}

// Conn is one endpoint of a simulated connection. Safe for concurrent
// use under the owning network's lock, like a real net.Conn.
type Conn struct {
	net    *Network
	id     int
	local  addr
	remote addr
	in     *link // peer writes here, we read
	out    *link // we write here, peer reads
	closed bool
	rdl    deadline
	wdl    deadline
}

var _ net.Conn = (*Conn)(nil)

// Listen binds a listener to a name on the network (any non-empty
// string works as an address).
func (n *Network) Listen(address string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[address]; ok {
		return nil, errors.New("faultnet: address already in use: " + address)
	}
	l := &Listener{net: n, addr: addr(address)}
	n.listeners[address] = l
	return l, nil
}

// Dial connects to the listener bound to address. It fails immediately
// with ErrRefused when no listener is bound or the network is
// partitioned (a partitioned dial cannot even start a handshake).
func (n *Network) Dial(address string) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned {
		n.log("dial %s refused (partitioned)", address)
		return nil, ErrRefused
	}
	l, ok := n.listeners[address]
	if !ok || l.closed {
		n.log("dial %s refused", address)
		return nil, ErrRefused
	}
	id := n.nextConnID
	n.nextConnID++
	c2s := &link{connID: id, dir: "c->s", rng: xrand.New(n.linkSeed(id, 0))}
	s2c := &link{connID: id, dir: "s->c", rng: xrand.New(n.linkSeed(id, 1))}
	client := &Conn{net: n, id: id, local: addr("client"), remote: l.addr, in: s2c, out: c2s}
	server := &Conn{net: n, id: id, local: l.addr, remote: addr("client"), in: c2s, out: s2c}
	l.pending = append(l.pending, server)
	n.log("conn%d dial %s", id, address)
	n.schedule()
	return client, nil
}

// Write injects b toward the peer, drawing this link's configured
// faults in a fixed order: reset, partial write, partition, drop,
// then delay (latency + jitter + reorder + bandwidth serialization).
// Writes never block — bandwidth pressure shows up as delivery delay,
// not as writer back-pressure.
func (c *Conn) Write(b []byte) (int, error) {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if c.out.reset || c.in.reset {
		return 0, ErrReset
	}
	if c.wdl.has && n.now >= c.wdl.t {
		return 0, ErrTimeout
	}
	l := c.out
	l.writes++
	f := &n.cfg
	if draw(l.rng, f.ResetProb) {
		l.reset, c.in.reset = true, true
		l.chunks, c.in.chunks = nil, nil
		n.log("conn%d %s write#%d reset", l.connID, l.dir, l.writes)
		n.schedule()
		return 0, ErrReset
	}
	if len(b) > 1 && draw(l.rng, f.PartialProb) {
		k := 1 + l.rng.Intn(len(b)-1)
		n.log("conn%d %s write#%d partial %d/%d", l.connID, l.dir, l.writes, k, len(b))
		c.enqueue(l, b[:k])
		return k, ErrPartialWrite
	}
	if n.partitioned {
		n.log("conn%d %s write#%d partitioned %dB", l.connID, l.dir, l.writes, len(b))
		return len(b), nil
	}
	if draw(l.rng, f.DropProb) {
		n.log("conn%d %s write#%d drop %dB", l.connID, l.dir, l.writes, len(b))
		return len(b), nil
	}
	n.log("conn%d %s write#%d ok %dB", l.connID, l.dir, l.writes, len(b))
	c.enqueue(l, b)
	return len(b), nil
}

// enqueue schedules a chunk for delivery, applying delay faults.
// Caller holds the network mutex.
func (c *Conn) enqueue(l *link, b []byte) {
	n := c.net
	f := &n.cfg
	delay := f.Latency
	if f.Jitter > 0 {
		delay += time.Duration(l.rng.Uint64n(uint64(f.Jitter)))
	}
	reordered := draw(l.rng, f.ReorderProb)
	if reordered {
		delay += f.ReorderDelay
		n.log("conn%d %s write#%d reorder +%v", l.connID, l.dir, l.writes, f.ReorderDelay)
	}
	start := n.now
	if f.BandwidthBPS > 0 {
		if l.busy > start {
			start = l.busy
		}
		tx := time.Duration(int64(len(b)) * int64(time.Second) / f.BandwidthBPS)
		l.busy = start + tx
		start += tx
	}
	at := start + delay
	// Jitter and bandwidth only stretch timing; like TCP, they never
	// permute the byte stream. Only the reorder injector may let a later
	// chunk overtake this one, so it skips the FIFO floor (and does not
	// raise it, letting subsequent chunks arrive first).
	if !reordered {
		if at < l.lastAt {
			at = l.lastAt
		}
		l.lastAt = at
	}
	data := make([]byte, len(b))
	copy(data, b)
	l.seq++
	l.chunks = append(l.chunks, chunk{at: at, seq: l.seq, data: data})
	sort.SliceStable(l.chunks, func(i, j int) bool {
		if l.chunks[i].at != l.chunks[j].at {
			return l.chunks[i].at < l.chunks[j].at
		}
		return l.chunks[i].seq < l.chunks[j].seq
	})
	n.schedule()
}

// draw consumes one Bernoulli decision with probability p (no RNG
// consumed when the fault is disabled, keeping unrelated fault
// configurations' streams independent).
func draw(rng *xrand.Source, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// Read delivers the next in-flight chunk (or its remainder) once its
// delivery time arrives, advancing the virtual clock if every actor is
// parked. Deadline expiry returns ErrTimeout; peer close drains the
// queue then returns io.EOF.
func (c *Conn) Read(b []byte) (int, error) {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	n.park(func() bool {
		return c.closed || c.in.reset ||
			(c.rdl.has && n.now >= c.rdl.t) ||
			(len(c.in.chunks) > 0 && c.in.chunks[0].at <= n.now) ||
			(c.in.closed && len(c.in.chunks) == 0)
	}, func() (time.Duration, bool) {
		return c.readWake()
	})
	switch {
	case c.closed:
		return 0, ErrClosed
	case c.in.reset:
		return 0, ErrReset
	case c.rdl.has && n.now >= c.rdl.t:
		return 0, ErrTimeout
	case len(c.in.chunks) > 0 && c.in.chunks[0].at <= n.now:
		ch := &c.in.chunks[0]
		m := copy(b, ch.data)
		if m == len(ch.data) {
			c.in.chunks = c.in.chunks[1:]
		} else {
			ch.data = ch.data[m:]
		}
		return m, nil
	default:
		return 0, io.EOF
	}
}

// readWake returns the earliest instant at which this blocked Read
// could make progress: the next chunk's delivery time or the read
// deadline, whichever comes first.
func (c *Conn) readWake() (time.Duration, bool) {
	var t time.Duration
	has := false
	if len(c.in.chunks) > 0 {
		t, has = c.in.chunks[0].at, true
	}
	if c.rdl.has && (!has || c.rdl.t < t) {
		t, has = c.rdl.t, true
	}
	return t, has
}

// Close closes this endpoint: the peer drains in-flight data and then
// reads io.EOF; our own pending reads fail with ErrClosed. Idempotent.
func (c *Conn) Close() error {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.out.closed = true
	n.log("conn%d close %s", c.id, c.out.dir)
	n.schedule()
	return nil
}

// LocalAddr returns the endpoint's address label.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer's address label.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines. Like a real
// net.Conn it fails on a connection that is closed or reset — callers
// that ignore the error will hang on a dead connection, which is
// exactly the bug class the collector's handler is tested against.
func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets the read deadline (zero time clears it).
func (c *Conn) SetReadDeadline(t time.Time) error {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.in.reset || c.out.reset {
		return ErrReset
	}
	c.rdl = toDeadline(t)
	n.schedule()
	return nil
}

// SetWriteDeadline sets the write deadline (zero time clears it).
func (c *Conn) SetWriteDeadline(t time.Time) error {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.in.reset || c.out.reset {
		return ErrReset
	}
	c.wdl = toDeadline(t)
	n.schedule()
	return nil
}

// toDeadline converts an absolute wall time (relative to Base) into a
// virtual deadline; the zero time clears it.
func toDeadline(t time.Time) deadline {
	if t.IsZero() {
		return deadline{}
	}
	return deadline{t: t.Sub(Base), has: true}
}

// Listener accepts simulated connections dialed to its address.
type Listener struct {
	net     *Network
	addr    addr
	pending []*Conn
	closed  bool
}

var _ net.Listener = (*Listener)(nil)

// Accept blocks until a connection is dialed or the listener closes
// (net.ErrClosed, so netwide.Collector.Serve exits cleanly).
func (l *Listener) Accept() (net.Conn, error) {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	n.park(func() bool { return l.closed || len(l.pending) > 0 },
		func() (time.Duration, bool) { return 0, false })
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Close unbinds the listener and wakes pending Accepts.
func (l *Listener) Close() error {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	delete(n.listeners, string(l.addr))
	n.schedule()
	return nil
}

// Addr returns the listener's bound address label.
func (l *Listener) Addr() net.Addr { return l.addr }

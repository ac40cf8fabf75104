package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// pair dials a client/server connection pair through a fresh network.
func pair(t *testing.T, seed uint64, f Faults) (*Network, net.Conn, net.Conn) {
	t.Helper()
	n := New(seed, f)
	l, err := n.Listen("collector")
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.Dial("collector")
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return n, client, server
}

func TestPerfectLinkRoundTrip(t *testing.T) {
	_, c, s := pair(t, 1, Faults{})
	msg := []byte("hello, collector")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip = %q", got)
	}
	// And the reverse direction.
	if _, err := s.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 3)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}
	if string(ack) != "ack" {
		t.Fatalf("ack = %q", ack)
	}
}

// TestLatencyAdvancesVirtualClock checks a blocked read jumps the
// clock by exactly the configured latency — no wall-clock involved.
func TestLatencyAdvancesVirtualClock(t *testing.T) {
	n, c, s := pair(t, 1, Faults{Latency: 3 * time.Second})
	before := n.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := n.Now().Sub(before); got != 3*time.Second {
		t.Fatalf("virtual elapsed = %v, want 3s", got)
	}
}

func TestReadDeadlineTimesOut(t *testing.T) {
	n, c, _ := pair(t, 1, Faults{})
	if err := c.SetReadDeadline(n.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline read error = %v, want timeout", err)
	}
	if got := n.Now(); got.Sub(Base) != time.Second {
		t.Fatalf("clock after timeout = %v past base, want 1s", got.Sub(Base))
	}
}

func TestSleepIsVirtual(t *testing.T) {
	n := New(1, Faults{})
	start := time.Now()
	n.Sleep(10 * time.Hour)
	if real := time.Since(start); real > time.Second {
		t.Fatalf("10h virtual sleep took %v of wall time", real)
	}
	if got := n.Now().Sub(Base); got != 10*time.Hour {
		t.Fatalf("virtual now = %v, want 10h", got)
	}
}

func TestDropLosesChunk(t *testing.T) {
	n, c, s := pair(t, 1, Faults{DropProb: 1})
	if _, err := c.Write([]byte("vanishes")); err != nil {
		t.Fatal(err) // drop is silent, like packet loss
	}
	if err := s.SetReadDeadline(n.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 8)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read after dropped write = %v, want timeout", err)
	}
}

func TestResetBreaksBothEnds(t *testing.T) {
	_, c, s := pair(t, 1, Faults{ResetProb: 1})
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("write on resetting link = %v, want ErrReset", err)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrReset) {
		t.Fatalf("peer read after reset = %v, want ErrReset", err)
	}
	if err := s.SetReadDeadline(Base.Add(time.Minute)); !errors.Is(err, ErrReset) {
		t.Fatalf("SetReadDeadline after reset = %v, want ErrReset", err)
	}
}

func TestPartialWriteDeliversPrefix(t *testing.T) {
	_, c, s := pair(t, 3, Faults{PartialProb: 1})
	msg := []byte("0123456789")
	k, err := c.Write(msg)
	if !errors.Is(err, ErrPartialWrite) {
		t.Fatalf("partial write error = %v", err)
	}
	if k <= 0 || k >= len(msg) {
		t.Fatalf("partial write length = %d, want strict prefix", k)
	}
	got := make([]byte, k)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg[:k]) {
		t.Fatalf("prefix = %q, want %q", got, msg[:k])
	}
}

func TestPartitionBlackholesAndRefusesDials(t *testing.T) {
	n, c, s := pair(t, 1, Faults{})
	n.SetPartitioned(true)
	if _, err := c.Write([]byte("lost")); err != nil {
		t.Fatal(err) // blackholed, not errored
	}
	if _, err := n.Dial("collector"); !errors.Is(err, ErrRefused) {
		t.Fatalf("partitioned dial = %v, want ErrRefused", err)
	}
	n.SetPartitioned(false)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("post-heal read = %q (pre-partition bytes leaked?)", got)
	}
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	_, c, s := pair(t, 1, Faults{Latency: time.Second})
	if _, err := c.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	got := make([]byte, 10)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err) // in-flight data still delivered
	}
	if _, err := s.Read(got); err != io.EOF {
		t.Fatalf("read after drain = %v, want io.EOF", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := New(1, Faults{})
	l, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	n.Go(func() {
		_, err := l.Accept()
		done <- err
	})
	l.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close = %v, want net.ErrClosed", err)
	}
	n.Wait()
}

// TestReorderCorruptsStreamOrder checks the reorder fault lets a later
// chunk overtake an earlier one — the byte stream arrives permuted.
func TestReorderCorruptsStreamOrder(t *testing.T) {
	// Only the first write is reordered (probability 1 would delay
	// every chunk equally, so stagger via a one-shot network).
	n := New(9, Faults{ReorderProb: 0.5, ReorderDelay: 10 * time.Second})
	l, _ := n.Listen("x")
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := l.Accept()
	// Write chunks until the seeded stream reorders at least one, then
	// check the assembled bytes differ from write order.
	var sent []byte
	for i := byte('a'); i <= 'j'; i++ {
		sent = append(sent, i)
		if _, err := c.Write([]byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sent) {
		t.Fatalf("read %d bytes, wrote %d", len(got), len(sent))
	}
	if bytes.Equal(got, sent) {
		t.Fatalf("seed 9 produced no reordering: %q", got)
	}
}

// TestBandwidthSerializesChunks checks a bandwidth cap turns chunk
// length into delivery delay.
func TestBandwidthSerializesChunks(t *testing.T) {
	n, c, s := pair(t, 1, Faults{BandwidthBPS: 1000})
	if _, err := c.Write(make([]byte, 500)); err != nil { // 0.5s on the wire
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 500)); err != nil { // queues behind it
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := n.Now().Sub(Base); elapsed != time.Second {
		t.Fatalf("1000B at 1000B/s took %v of virtual time, want 1s", elapsed)
	}
}

// TestTranscriptDeterminism runs the same faulty workload twice and
// demands identical transcripts: the acceptance bar for every chaos
// scenario built on this package.
func TestTranscriptDeterminism(t *testing.T) {
	run := func() []string {
		n, c, s := pair(t, 42, Faults{
			Latency: time.Millisecond, Jitter: time.Millisecond,
			DropProb: 0.3, PartialProb: 0.1, BandwidthBPS: 1 << 20,
		})
		for i := 0; i < 40; i++ {
			c.Write(bytes.Repeat([]byte{byte(i)}, 64))
		}
		// Drain whatever survived the faults.
		s.SetReadDeadline(n.Now().Add(time.Minute))
		io.ReadAll(s)
		return n.Transcript()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different transcripts:\n%v\n---\n%v", a, b)
	}
	// And a different seed must differ (the injectors actually draw
	// from the seed, not from a fixed schedule).
	n, c, s := pair(t, 43, Faults{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		DropProb: 0.3, PartialProb: 0.1, BandwidthBPS: 1 << 20,
	})
	for i := 0; i < 40; i++ {
		c.Write(bytes.Repeat([]byte{byte(i)}, 64))
	}
	s.SetReadDeadline(n.Now().Add(time.Minute))
	io.ReadAll(s)
	if reflect.DeepEqual(a, n.Transcript()) {
		t.Fatal("seeds 42 and 43 produced identical transcripts")
	}
}

// TestConcurrentActorsQuiesce runs a registered echo server and client
// and checks virtual time only advances through the declared latency.
func TestConcurrentActorsQuiesce(t *testing.T) {
	n := New(7, Faults{Latency: time.Second})
	l, err := n.Listen("echo")
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	})
	n.Go(func() {
		conn, err := n.Dial("echo")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 4)
		for i := 0; i < 5; i++ {
			if _, err := conn.Write([]byte("ping")); err != nil {
				t.Error(err)
				return
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	n.Wait()
	l.Close()
	// 5 round trips at 1s per direction = 10s of virtual time.
	if got := n.Now().Sub(Base); got != 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want 10s", got)
	}
}

// TestSameInstantActorsTakeTurns pins the scheduling rule: when both
// ends of a connection become runnable at the same virtual instant (a
// reset on a zero-latency link), they still act in one fixed order, so
// repeated runs log identical transcripts.
func TestSameInstantActorsTakeTurns(t *testing.T) {
	run := func() []string {
		n := New(1, Faults{ResetProb: 1})
		l, err := n.Listen("x")
		if err != nil {
			t.Fatal(err)
		}
		n.Go(func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			l.Close()
			conn.Read(make([]byte, 1)) // fails: the peer's write resets the link
			conn.Close()
		})
		n.Go(func() {
			conn, err := n.Dial("x")
			if err != nil {
				t.Error(err)
				return
			}
			conn.Write([]byte("x")) // resets the link
			conn.Close()
		})
		n.Wait()
		return n.Transcript()
	}
	want := run()
	for i := 0; i < 1000; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: transcript %q, want %q", i, got, want)
		}
	}
}

package ovs

import (
	"runtime"
	"sync"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

// uncachedPush mirrors TryPush without the headCache snapshot: it
// reloads the consumer index on every call, as the pre-batching ring
// did. Kept as a benchmark reference for the cached-index win.
func uncachedPush(r *RingOf[trace.Packet], p trace.Packet) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = p
	r.tail.Store(tail + 1)
	return true
}

// uncachedPop mirrors TryPop without the tailCache snapshot.
func uncachedPop(r *RingOf[trace.Packet], out *trace.Packet) bool {
	head := r.head.Load()
	if head == r.tail.Load() {
		return false
	}
	*out = r.buf[head&r.mask]
	r.head.Store(head + 1)
	return true
}

// benchBurst is the transfer burst of the batched benchmark loops, the
// DPDK rx_burst size used by the ring's users (shard.DefaultBurst).
const benchBurst = 64

// runSPSC pumps b.N packets through a fresh ring with the given
// producer and consumer loop bodies and reports ns per packet.
func runSPSC(b *testing.B, produce func(*RingOf[trace.Packet], []trace.Packet), consume func(*RingOf[trace.Packet], []trace.Packet) int) {
	r := NewRingOf[trace.Packet](4096)
	burst := make([]trace.Packet, benchBurst)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent := 0
		for sent < b.N {
			n := b.N - sent
			if n > len(burst) {
				n = len(burst)
			}
			produce(r, burst[:n])
			sent += n
		}
		r.Close()
	}()
	out := make([]trace.Packet, benchBurst)
	got := 0
	for got < b.N {
		n := consume(r, out)
		if n == 0 {
			runtime.Gosched()
		}
		got += n
	}
	wg.Wait()
}

func BenchmarkRingSPSC(b *testing.B) {
	b.Run("single-uncached", func(b *testing.B) {
		runSPSC(b,
			func(r *RingOf[trace.Packet], ps []trace.Packet) {
				for i := range ps {
					for !uncachedPush(r, ps[i]) {
						runtime.Gosched()
					}
				}
			},
			func(r *RingOf[trace.Packet], out []trace.Packet) int {
				n := 0
				for n < len(out) && uncachedPop(r, &out[n]) {
					n++
				}
				return n
			})
	})
	b.Run("single-cached", func(b *testing.B) {
		runSPSC(b,
			func(r *RingOf[trace.Packet], ps []trace.Packet) {
				for i := range ps {
					for !r.TryPush(ps[i]) {
						runtime.Gosched()
					}
				}
			},
			func(r *RingOf[trace.Packet], out []trace.Packet) int {
				n := 0
				for n < len(out) && r.TryPop(&out[n]) {
					n++
				}
				return n
			})
	})
	b.Run("batch-cached", func(b *testing.B) {
		runSPSC(b,
			func(r *RingOf[trace.Packet], ps []trace.Packet) {
				for len(ps) > 0 {
					n := r.TryPushN(ps)
					ps = ps[n:]
					if n == 0 {
						runtime.Gosched()
					}
				}
			},
			func(r *RingOf[trace.Packet], out []trace.Packet) int {
				return r.TryPopN(out)
			})
	})
}

// TestRingBatchFIFO checks TryPushN/TryPopN ordering and partial-push
// accounting on a full ring, single-threaded.
func TestRingBatchFIFO(t *testing.T) {
	r := NewRingOf[trace.Packet](8)
	ps := make([]trace.Packet, 5)
	for i := range ps {
		ps[i] = pkt(uint32(i))
	}
	if n := r.TryPushN(ps); n != 5 {
		t.Fatalf("pushed %d, want 5", n)
	}
	// Only 3 slots remain; the burst must be truncated.
	for i := range ps {
		ps[i] = pkt(uint32(5 + i))
	}
	if n := r.TryPushN(ps); n != 3 {
		t.Fatalf("pushed %d into nearly full ring, want 3", n)
	}
	if n := r.TryPushN(ps[3:]); n != 0 {
		t.Fatalf("pushed %d into full ring, want 0", n)
	}
	out := make([]trace.Packet, 16)
	if n := r.TryPopN(out); n != 8 {
		t.Fatalf("popped %d, want 8", n)
	}
	for i := 0; i < 8; i++ {
		if out[i].Key.SrcIP != flowkey.IPv4FromUint32(uint32(i)) {
			t.Fatalf("position %d: got %v", i, out[i].Key)
		}
	}
	if n := r.TryPopN(out); n != 0 {
		t.Fatalf("popped %d from empty ring, want 0", n)
	}
}

// TestRingBatchMixedSingle interleaves single and batch operations on
// both sides to check the two APIs share one index pair coherently.
func TestRingBatchMixedSingle(t *testing.T) {
	r := NewRingOf[trace.Packet](16)
	next := uint32(0)
	want := uint32(0)
	out := make([]trace.Packet, 4)
	for round := 0; round < 200; round++ {
		if round%2 == 0 {
			ps := []trace.Packet{pkt(next), pkt(next + 1), pkt(next + 2)}
			if n := r.TryPushN(ps); n != 3 {
				t.Fatalf("round %d: pushed %d", round, n)
			}
			next += 3
		} else {
			if !r.TryPush(pkt(next)) {
				t.Fatalf("round %d: single push failed", round)
			}
			next++
		}
		if round%3 == 0 {
			var p trace.Packet
			for r.TryPop(&p) {
				if p.Key.SrcIP != flowkey.IPv4FromUint32(want) {
					t.Fatalf("round %d: single pop got %v, want %d", round, p.Key, want)
				}
				want++
			}
		} else {
			for {
				n := r.TryPopN(out)
				if n == 0 {
					break
				}
				for i := 0; i < n; i++ {
					if out[i].Key.SrcIP != flowkey.IPv4FromUint32(want) {
						t.Fatalf("round %d: batch pop got %v, want %d", round, out[i].Key, want)
					}
					want++
				}
			}
		}
	}
	if want != next {
		t.Fatalf("drained %d packets, pushed %d", want, next)
	}
}

// TestRingBatchConcurrentStress pushes a large stream through the ring
// with batched producers/consumers across two goroutines and verifies
// strict FIFO order and zero loss.
func TestRingBatchConcurrentStress(t *testing.T) {
	r := NewRingOf[trace.Packet](64)
	const total = 300000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		burst := make([]trace.Packet, 48)
		sent := uint32(0)
		for sent < total {
			n := len(burst)
			if rem := total - sent; uint32(n) > rem {
				n = int(rem)
			}
			for i := 0; i < n; i++ {
				burst[i] = pkt(sent + uint32(i))
			}
			for off := 0; off < n; {
				pushed := r.TryPushN(burst[off:n])
				if pushed == 0 {
					runtime.Gosched()
				}
				off += pushed
			}
			sent += uint32(n)
		}
		r.Close()
	}()
	out := make([]trace.Packet, 32)
	got := uint32(0)
	for {
		n := r.TryPopN(out)
		if n == 0 {
			if r.Closed() {
				if n = r.TryPopN(out); n == 0 {
					break
				}
			} else {
				runtime.Gosched()
				continue
			}
		}
		for i := 0; i < n; i++ {
			if out[i].Key.SrcIP != flowkey.IPv4FromUint32(got) {
				t.Fatalf("out-of-order delivery at %d: %v", got, out[i].Key)
			}
			got++
		}
	}
	wg.Wait()
	if got != total {
		t.Fatalf("consumed %d packets, want %d", got, total)
	}
}

package ovs

import (
	"runtime"
	"sync"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

func pkt(i uint32) trace.Packet {
	return trace.Packet{
		Key:  flowkey.FiveTuple{SrcIP: flowkey.IPv4FromUint32(i), Proto: 6},
		Size: 64,
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if got := NewRingOf[trace.Packet](1000).Capacity(); got != 1024 {
		t.Fatalf("capacity = %d, want 1024", got)
	}
	if got := NewRingOf[trace.Packet](0).Capacity(); got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRingOf[trace.Packet](8)
	for i := uint32(0); i < 8; i++ {
		if !r.TryPush(pkt(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.TryPush(pkt(99)) {
		t.Fatal("push into full ring succeeded")
	}
	var p trace.Packet
	for i := uint32(0); i < 8; i++ {
		if !r.TryPop(&p) {
			t.Fatalf("pop %d failed", i)
		}
		if p.Key.SrcIP != flowkey.IPv4FromUint32(i) {
			t.Fatalf("pop %d returned wrong packet %v", i, p.Key)
		}
	}
	if r.TryPop(&p) {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRingOf[trace.Packet](4)
	var p trace.Packet
	for round := uint32(0); round < 100; round++ {
		if !r.TryPush(pkt(round)) {
			t.Fatalf("push failed on round %d", round)
		}
		if !r.TryPop(&p) || p.Key.SrcIP != flowkey.IPv4FromUint32(round) {
			t.Fatalf("wrap-around mismatch on round %d", round)
		}
	}
}

func TestRingConcurrentSPSC(t *testing.T) {
	r := NewRingOf[trace.Packet](64)
	const n = 100000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); i < n; i++ {
			for !r.TryPush(pkt(i)) {
				runtime.Gosched()
			}
		}
		r.Close()
	}()
	var p trace.Packet
	var got uint32
	for {
		// Close follows the last push, so a pop that finds the ring
		// empty after Close was seen has drained it.
		closed := r.Closed()
		if r.TryPop(&p) {
			if p.Key.SrcIP != flowkey.IPv4FromUint32(got) {
				t.Fatalf("out-of-order delivery at %d: %v", got, p.Key)
			}
			got++
			continue
		}
		if closed {
			break
		}
		runtime.Gosched()
	}
	// A final drain in case Close raced the last pops.
	for r.TryPop(&p) {
		got++
	}
	wg.Wait()
	if got != n {
		t.Fatalf("consumed %d packets, want %d", got, n)
	}
}

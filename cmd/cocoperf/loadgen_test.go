package main

import (
	"errors"
	"testing"
	"time"
)

// A handler that stalls once must charge the stall to every request
// queued behind it, not only to the stalled one: that is what timing
// from the due time (not the send time) buys.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		n       = 200
		stallAt = 20
		stall   = 100 * time.Millisecond
		every   = time.Millisecond
	)
	res := openLoop{start: time.Now().Add(5 * time.Millisecond), interval: every, n: n}.run(func(i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if res.failed != 0 {
		t.Fatalf("%d requests failed", res.failed)
	}
	if got := res.latency[stallAt]; got < ms(stall) {
		t.Fatalf("stalled request latency %.3f ms, want at least %v", got, stall)
	}
	// Request stallAt+k was due k intervals into the stall, so it waited
	// at least the rest of the stall before it could be sent.
	for k := 1; k < int(stall/every); k++ {
		floor := ms(stall - time.Duration(k)*every)
		if got := res.latency[stallAt+k]; got < floor {
			t.Fatalf("request %d queued behind the stall: latency %.3f ms, want at least %.3f", stallAt+k, got, floor)
		}
		if got := res.lag[stallAt+k]; got < floor {
			t.Fatalf("request %d queued behind the stall: sent %.3f ms late, want at least %.3f", stallAt+k, got, floor)
		}
	}
	if lag := res.lagP99(); lag < ms(stall)*0.9 {
		t.Fatalf("lag p99 %.3f ms does not show the %v stall", lag, stall)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	boom := errors.New("boom")
	res := openLoop{start: time.Now(), interval: 10 * time.Microsecond, n: 50}.run(func(i int) error {
		if i%10 == 0 {
			return boom
		}
		return nil
	})
	if res.failed != 5 || len(res.errors) != 5 {
		t.Fatalf("failed %d (%d messages), want 5", res.failed, len(res.errors))
	}
	for i := 0; i < 50; i += 10 {
		if res.latency[i] != failedMs {
			t.Fatalf("failed request %d has latency %v, want %v", i, res.latency[i], failedMs)
		}
	}

	calls := 0
	past := time.Now().Add(-time.Second)
	res = openLoop{start: past, interval: time.Microsecond, n: 3, deadline: past}.run(func(int) error {
		calls++
		return nil
	})
	if calls != 0 || res.failed != 3 {
		t.Fatalf("past the deadline: %d calls, %d failed; want 0 calls, 3 failed", calls, res.failed)
	}
}

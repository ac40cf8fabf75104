package telemetry

import (
	"sync"
	"testing"
)

const (
	hammerGoroutines = 16
	hammerOps        = 10_000
)

// TestCounterHammer asserts exact totals when 16 goroutines increment
// one counter concurrently (run under -race via make race).
func TestCounterHammer(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hammerOps; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(3)
				}
			}
		}()
	}
	wg.Wait()
	want := uint64(hammerGoroutines) * (hammerOps/2 + 3*hammerOps/2)
	if got := c.Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

// TestGaugeHammer checks Add deltas cancel exactly across goroutines.
func TestGaugeHammer(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < hammerGoroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hammerOps; i++ {
				g.Add(5)
				g.Add(-5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

// TestNilMetricsAreNoOps pins the disabled form: every method on nil
// metrics (what Disabled hands out) must be safe and return zeros.
func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(42)
	h.Merge(nil)
	if s := h.Snapshot(); s.Count() != 0 || s.Sum != 0 {
		t.Fatal("nil histogram has observations")
	}

	if Disabled.Enabled() {
		t.Fatal("Disabled reports enabled")
	}
	if Disabled.Counter("x") != nil || Disabled.Gauge("x") != nil || Disabled.Histogram("x") != nil {
		t.Fatal("Disabled registry handed out a live metric")
	}
	if Disabled.Names() != nil {
		t.Fatal("Disabled registry has names")
	}
	snap := Disabled.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("Disabled snapshot is not empty")
	}
	if NewSketchMetrics(Disabled, "core") != nil {
		t.Fatal("NewSketchMetrics on Disabled is not nil")
	}
}

// TestRegistrySameName checks concurrent lookups of one name converge
// on a single metric with an exact combined total.
func TestRegistrySameName(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < hammerOps; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != hammerGoroutines*hammerOps {
		t.Fatalf("shared counter = %d, want %d", got, hammerGoroutines*hammerOps)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "shared" {
		t.Fatalf("names = %v", names)
	}
}

// TestSnapshotMonotoneUnderHammer hammers counters and a histogram
// from 16 goroutines while the main goroutine snapshots continuously:
// every counter value and every histogram bucket must be monotone
// across successive snapshots, and the final snapshot must hold the
// exact totals.
func TestSnapshotMonotoneUnderHammer(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines also register new metrics mid-flight
			// to race registration against Snapshot.
			c := r.Counter("ops")
			h := r.Histogram("sizes")
			for i := 0; i < hammerOps; i++ {
				c.Inc()
				h.Observe(uint64(i % 257))
				if g%2 == 0 && i == hammerOps/2 {
					r.Gauge("late").Set(int64(g))
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev Snapshot
	snapshots := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snap := r.Snapshot()
		snapshots++
		if snap.Counters["ops"] < prev.Counters["ops"] {
			t.Fatalf("counter went backwards: %d -> %d", prev.Counters["ops"], snap.Counters["ops"])
		}
		ph, sh := prev.Histograms["sizes"], snap.Histograms["sizes"]
		for i := range sh.Buckets {
			if sh.Buckets[i] < ph.Buckets[i] {
				t.Fatalf("histogram bucket %d went backwards: %d -> %d", i, ph.Buckets[i], sh.Buckets[i])
			}
		}
		if sh.Count() < ph.Count() {
			t.Fatalf("histogram count went backwards: %d -> %d", ph.Count(), sh.Count())
		}
		prev = snap
	}

	final := r.Snapshot()
	const want = hammerGoroutines * hammerOps
	if final.Counters["ops"] != want {
		t.Fatalf("final ops = %d, want %d", final.Counters["ops"], want)
	}
	if got := final.Histograms["sizes"].Count(); got != want {
		t.Fatalf("final histogram count = %d, want %d", got, want)
	}
	t.Logf("took %d snapshots while hammering", snapshots)
}

// TestSketchMetricsRegistration checks the counter group lands under
// the prefix and shares state with direct registry lookups.
func TestSketchMetricsRegistration(t *testing.T) {
	r := New()
	m := NewSketchMetrics(r, "core")
	if m == nil {
		t.Fatal("nil group from live registry")
	}
	m.Replaced.Add(4)
	if got := r.Counter("core.replaced").Value(); got != 4 {
		t.Fatalf("core.replaced = %d, want 4", got)
	}
}

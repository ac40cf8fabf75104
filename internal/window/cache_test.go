package window_test

// Metamorphic cache suite: the result cache must be invisible in
// answers — every query with the cache enabled is bit-identical to the
// same query with the cache disabled, including across seal-driven
// invalidation and ring eviction — and a window that eviction made
// unservable must error identically whether or not its answer is still
// sitting in the cache (the stale-read regression), no matter how many
// times the invalidation sweep runs (the double-invalidation
// regression).

import (
	"errors"
	"reflect"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// twinRings seals the same epoch sketches into a cached and an
// uncached ring.
func twinRings(t *testing.T, capacity, nEpochs int) (cached, uncached *window.Ring) {
	t.Helper()
	tr := trace.CAIDALike(24_000, 13)
	epochs := epochSketches(testConfig, tr, nEpochs)
	cached = window.NewRing(capacity, testConfig)
	uncached = window.NewRing(capacity, testConfig).SetCacheLimit(0)
	for e := 0; e < nEpochs; e++ {
		if err := cached.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
		if err := uncached.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	return cached, uncached
}

// compareRings runs the same query sequence (twice, so the cached ring
// serves hits the second time) against both rings and demands
// bit-identical results and errors.
func compareRings(t *testing.T, cached, uncached *window.Ring, masks []flowkey.Mask, spans []window.Range) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, rg := range spans {
			for _, m := range masks {
				ga, errA := cached.GroupBy(rg, m)
				gb, errB := uncached.GroupBy(rg, m)
				if unwrapTarget(errA) != unwrapTarget(errB) {
					t.Fatalf("pass %d %v %v: cached err %v, uncached err %v", pass, rg, m, errA, errB)
				}
				if !reflect.DeepEqual(ga, gb) {
					t.Fatalf("pass %d %v %v: cached GroupBy differs from uncached", pass, rg, m)
				}
				ta, errA := cached.Top(rg, m, 4)
				tb, errB := uncached.Top(rg, m, 4)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("pass %d %v %v: Top err mismatch: %v vs %v", pass, rg, m, errA, errB)
				}
				if !reflect.DeepEqual(ta, tb) {
					t.Fatalf("pass %d %v %v: cached Top differs from uncached", pass, rg, m)
				}
			}
			ra, errA := cached.SQL("SELECT DstIP, SUM(Size) FROM table GROUP BY DstIP", rg)
			rb, errB := uncached.SQL("SELECT DstIP, SUM(Size) FROM table GROUP BY DstIP", rg)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("pass %d %v: SQL err mismatch: %v vs %v", pass, rg, errA, errB)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("pass %d %v: cached SQL differs from uncached", pass, rg)
			}
		}
	}
}

// unwrapTarget maps an error to the sentinel it wraps, for symmetric
// comparison.
func unwrapTarget(err error) error {
	switch {
	case errors.Is(err, window.ErrEvicted):
		return window.ErrEvicted
	case errors.Is(err, window.ErrEmpty):
		return window.ErrEmpty
	default:
		return err
	}
}

// TestCacheMetamorphicIdentity: cached answers are bit-identical to
// uncached across closed, open and partially evicted spans.
func TestCacheMetamorphicIdentity(t *testing.T) {
	masks := testMasks(t)
	cached, uncached := twinRings(t, 4, 7) // epochs 0..2 evicted
	spans := []window.Range{
		{From: 3, To: 7}, {From: 4, To: 6}, {From: 5, To: window.Open},
		{From: 6, To: 7}, {From: 3, To: 5},
		{From: 0, To: 7},  // reaches evicted epochs → ErrEvicted on both
		{From: 2, To: 4},  // partially evicted → ErrEvicted on both
		{From: 9, To: 12}, // beyond the newest seal → ErrEmpty on both
	}
	compareRings(t, cached, uncached, masks, spans)
}

// TestCacheInvalidationOnEviction is the stale-read regression pin: a
// window answered (and cached) while its epochs were retained must
// fail with ErrEvicted — not serve the stale cached answer — once ring
// eviction passes its start.
func TestCacheInvalidationOnEviction(t *testing.T) {
	tr := trace.CAIDALike(16_000, 17)
	epochs := epochSketches(testConfig, tr, 6)
	reg := telemetry.New()
	r := window.NewRing(3, testConfig).SetTelemetry(reg)
	m := flowkey.MaskFields(flowkey.FieldSrcIP)

	for e := 0; e < 3; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	rg := window.Range{From: 0, To: 3}
	if _, err := r.GroupBy(rg, m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GroupBy(rg, m); err != nil { // now a cache hit
		t.Fatal(err)
	}
	if hits := reg.Snapshot().Counters["window.cache_hits"]; hits == 0 {
		t.Fatal("expected a cache hit before eviction")
	}

	// Seal epoch 3: capacity 3 evicts epoch 0, so [0,3) is unservable.
	if err := r.Seal(3, epochs[3].Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GroupBy(rg, m); !errors.Is(err, window.ErrEvicted) {
		t.Fatalf("GroupBy over evicted window: err = %v, want ErrEvicted", err)
	}
	if _, err := r.Window(rg); !errors.Is(err, window.ErrEvicted) {
		t.Fatalf("Window over evicted window: err = %v, want ErrEvicted", err)
	}
	if inv := reg.Snapshot().Counters["window.cache_invalidations"]; inv == 0 {
		t.Fatal("eviction should have invalidated cached entries")
	}
}

// TestCacheDoubleInvalidationIdempotent: eviction sweeps across
// several consecutive seals (each raising the floor) leave the cache
// consistent — repeated invalidation finds nothing stale to serve and
// never drops still-valid entries.
func TestCacheDoubleInvalidationIdempotent(t *testing.T) {
	tr := trace.CAIDALike(16_000, 19)
	epochs := epochSketches(testConfig, tr, 8)
	r := window.NewRing(3, testConfig)
	m := flowkey.MaskFields(flowkey.FieldDstIP)

	want := make(map[uint64]map[flowkey.FiveTuple]uint64)
	for e := 0; e < 8; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
		// Query (and cache) the newest single-epoch window plus the
		// full retained window after every seal.
		g, err := r.GroupBy(window.Range{From: uint64(e), To: uint64(e) + 1}, m)
		if err != nil {
			t.Fatal(err)
		}
		want[uint64(e)] = g
		if _, err := r.GroupBy(r.LastN(3), m); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs 0..4 evicted (capacity 3 of 8). Every retained
	// single-epoch window must still answer — and identically to what
	// it answered when first cached.
	for e := uint64(5); e < 8; e++ {
		g, err := r.GroupBy(window.Range{From: e, To: e + 1}, m)
		if err != nil {
			t.Fatalf("epoch %d after repeated evictions: %v", e, err)
		}
		if !reflect.DeepEqual(g, want[e]) {
			t.Fatalf("epoch %d: answer changed across invalidation sweeps", e)
		}
	}
	for e := uint64(0); e < 5; e++ {
		if _, err := r.GroupBy(window.Range{From: e, To: e + 1}, m); !errors.Is(err, window.ErrEvicted) {
			t.Fatalf("evicted epoch %d: err = %v, want ErrEvicted", e, err)
		}
	}
}

// TestCacheHitRatio pins that repeated identical windowed queries are
// served from the cache (the hit-ratio telemetry the bench-query gate
// also checks).
func TestCacheHitRatio(t *testing.T) {
	masks := testMasks(t)
	reg := telemetry.New()
	tr := trace.CAIDALike(16_000, 23)
	epochs := epochSketches(testConfig, tr, 4)
	r := window.NewRing(4, testConfig).SetTelemetry(reg)
	for e := 0; e < 4; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(3)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		m := masks[int(rng.Uint64n(uint64(len(masks))))]
		if _, err := r.GroupBy(window.Range{From: 1, To: 4}, m); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["window.cache_hits"], snap.Counters["window.cache_misses"]
	ratio := float64(hits) / float64(hits+misses)
	if ratio < 0.9 {
		t.Fatalf("cache hit ratio %.3f < 0.9 (hits %d, misses %d)", ratio, hits, misses)
	}
}

// TestCacheBounded pins that the cache never exceeds its entry limit.
func TestCacheBounded(t *testing.T) {
	tr := trace.CAIDALike(8_000, 29)
	epochs := epochSketches(testConfig, tr, 6)
	r := window.NewRing(6, testConfig).SetCacheLimit(8)
	m := flowkey.MaskFields(flowkey.FieldSrcIP)
	for e := 0; e < 6; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for from := uint64(0); from < 6; from++ {
		for to := from + 1; to <= 6; to++ {
			if _, err := r.GroupBy(window.Range{From: from, To: to}, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if results := r.CacheLen(); results > 8 {
		t.Fatalf("cache exceeded its limit: %d results (limit 8)", results)
	}
}

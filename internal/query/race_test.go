package query_test

// Race-detector test: the query front-end serves concurrent
// partial-key queries against engines published by a live sealing
// loop — the cocoquery-over-live-collector shape, where the decode
// side keeps building fresh tables while readers aggregate the
// previous snapshot. Engines are immutable once built and handed over
// through an atomic pointer, so the whole arrangement must be clean
// under -race (the Makefile "race" target runs this package).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/report"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// raceKey derives a deterministic 5-tuple from a flow id, with enough
// spread that every mask in the test produces non-trivial groups.
func raceKey(id uint64) flowkey.FiveTuple {
	x := id*0x9e3779b97f4a7c15 + 1
	return flowkey.FiveTuple{
		SrcIP:   [4]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)},
		DstIP:   [4]byte{byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)},
		SrcPort: uint16(id),
		DstPort: uint16(id >> 2),
		Proto:   17,
	}
}

// TestConcurrentQueriesAgainstLiveSealing runs one producer that
// keeps inserting traffic into a sketch, sealing a shrink-4 stage of it
// and publishing a fresh engine, while several
// readers concurrently exercise every query entry point (Query,
// GroupBy, Top, SQL) on whatever engine is current. Each reader also
// checks the aggregation invariant on its snapshot: grouped mass
// equals full-table mass under any mask.
func TestConcurrentQueriesAgainstLiveSealing(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 5}
	codec, err := report.New[flowkey.FiveTuple](cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	var current atomic.Pointer[query.Engine]
	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	current.Store(query.NewEngine(sk.Decode()))

	masks := make([]flowkey.Mask, 0, 4)
	for _, spec := range []string{"SrcIP", "SrcIP/24+DstIP", "DstIP+DstPort", "Proto"} {
		m, err := flowkey.ParseMask(spec)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}

	const (
		rounds  = 200
		packets = 256
		readers = 4
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wl := xrand.New(42)
		for r := 0; r < rounds; r++ {
			for p := 0; p < packets; p++ {
				sk.Insert(raceKey(wl.Uint64n(512)), 1+wl.Uint64n(3))
			}
			stage, err := codec.Seal(sk)
			if err != nil {
				t.Error(err)
				return
			}
			current.Store(query.NewEngine(stage.Decode()))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng := current.Load()
				m := masks[(r+i)%len(masks)]

				var full uint64
				for _, v := range eng.FullTable() {
					full += v
				}
				var grouped uint64
				for _, v := range eng.GroupBy(m) {
					grouped += v
				}
				if grouped != full {
					t.Errorf("reader %d: grouped mass %d != full mass %d under %v", r, grouped, full, m)
					return
				}
				if top := eng.Top(m, 3); len(top) > 1 && top[0].Size < top[1].Size {
					t.Errorf("reader %d: Top not sorted", r)
					return
				}
				_ = eng.Query(m, raceKey(uint64(i)))
				if _, err := eng.SQL("SELECT SrcIP/24, SUM(Size) FROM table GROUP BY SrcIP/24"); err != nil {
					t.Errorf("reader %d: SQL: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestConcurrentQueriesAgainstWindowRing is the windowed sibling: the
// sealing loop publishes epochs into the query-serving ring
// (internal/window) instead of a single engine pointer, and readers
// obtain their engines through windowed lookups — cache hits, misses,
// eviction-driven invalidation and the single-epoch fast path all
// racing the sealer. Every engine a reader obtains is an immutable
// snapshot, so the same aggregation invariant must hold under -race.
func TestConcurrentQueriesAgainstWindowRing(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 5}
	ring := window.NewRing(3, cfg)

	masks := make([]flowkey.Mask, 0, 4)
	for _, spec := range []string{"SrcIP", "SrcIP/24+DstIP", "DstIP+DstPort", "Proto"} {
		m, err := flowkey.ParseMask(spec)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}

	const (
		epochs  = 48
		packets = 256
		readers = 4
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wl := xrand.New(42)
		for e := uint64(0); e < epochs; e++ {
			sk := core.NewBasic[flowkey.FiveTuple](cfg)
			for p := 0; p < packets; p++ {
				sk.Insert(raceKey(wl.Uint64n(512)), 1+wl.Uint64n(3))
			}
			if err := ring.Seal(e, sk); err != nil {
				t.Errorf("seal %d: %v", e, err)
				return
			}
		}
	}()

	var served atomic.Uint64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(7 + r))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo, hi, ok := ring.Bounds()
				if !ok {
					continue
				}
				// Span drawn around the live retention; the sealer may
				// still outrun it (eviction) before the lookup lands.
				from := lo + rng.Uint64n(hi-lo)
				rg := window.Range{From: from, To: from + 1 + rng.Uint64n(3)}
				eng, err := ring.Window(rg)
				if err != nil {
					// The sealer may not have reached the span yet, or may
					// already have evicted it; both are legal mid-race.
					if !errors.Is(err, window.ErrEmpty) && !errors.Is(err, window.ErrEvicted) {
						t.Errorf("reader %d: Window(%v): %v", r, rg, err)
						return
					}
					continue
				}
				served.Add(1)
				m := masks[(r+i)%len(masks)]
				var full uint64
				for _, v := range eng.FullTable() {
					full += v
				}
				var grouped uint64
				for _, v := range eng.GroupBy(m) {
					grouped += v
				}
				if grouped != full {
					t.Errorf("reader %d: grouped mass %d != full mass %d under %v", r, grouped, full, m)
					return
				}
				if top := eng.Top(m, 3); len(top) > 1 && top[0].Size < top[1].Size {
					t.Errorf("reader %d: Top not sorted", r)
					return
				}
				_ = eng.Query(m, raceKey(uint64(i)))
			}
		}(r)
	}
	wg.Wait()
	// Deterministic post-race check: the final retained window must
	// serve, whatever the readers managed to catch mid-flight.
	eng, err := ring.Window(ring.LastN(3))
	if err != nil {
		t.Fatalf("final window: %v", err)
	}
	var full uint64
	for _, v := range eng.FullTable() {
		full += v
	}
	if full == 0 {
		t.Fatal("final window is empty")
	}
	_ = served.Load() // readers may or may not have landed a span; the race coverage is the point
}

package window_test

// Race-detector suite for the query-serving tier: one sealer driving
// the ring through seals and evictions while readers hammer every
// windowed query entry point (cache hits, misses and invalidations all
// in play) and churners Subscribe/Unsubscribe concurrently with event
// delivery. The ring publishes immutable snapshots through an atomic
// pointer and the cache serializes on its own mutex, so the whole
// arrangement must be clean under -race (the Makefile "race" target
// runs this package).

import (
	"errors"
	"sync"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// raceTuple derives a deterministic 5-tuple from a flow id.
func raceTuple(id uint64) flowkey.FiveTuple {
	x := id*0x9e3779b97f4a7c15 + 1
	return flowkey.FiveTuple{
		SrcIP:   [4]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)},
		DstIP:   [4]byte{byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)},
		SrcPort: uint16(id),
		DstPort: uint16(id >> 3),
		Proto:   17,
	}
}

// TestConcurrentSealQuerySubscribe runs the full concurrent
// choreography: sealer, query readers, subscription churners and an
// event drainer, with ring eviction and cache invalidation happening
// throughout. Readers also check the aggregation invariant (grouped
// mass equals full mass) on every answer.
func TestConcurrentSealQuerySubscribe(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 9}
	reg := telemetry.New()
	r := window.NewRing(4, cfg).SetTelemetry(reg).SetCacheLimit(64)

	// More masks than may be in use at once (Window adds the full
	// key), so readers also race views built per query against seals
	// and places in the set of masks in use changing hands.
	var masks []flowkey.Mask
	for _, spec := range []string{"SrcIP", "SrcIP/24+DstIP", "DstIP+DstPort", "Proto",
		"SrcIP/8", "SrcIP/16", "SrcIP/24", "DstIP/8", "DstIP/16", "DstIP/24", "SrcPort", "DstPort"} {
		m, err := flowkey.ParseMask(spec)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}

	const (
		epochs  = 64
		packets = 512
		readers = 4
		churn   = 2
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Sealer: one sketch per epoch, sealed in order, evicting from
	// epoch 4 on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wl := xrand.New(11)
		for e := uint64(0); e < epochs; e++ {
			sk := core.NewBasic[flowkey.FiveTuple](cfg)
			for p := 0; p < packets; p++ {
				sk.Insert(raceTuple(wl.Uint64n(256)), 1+wl.Uint64n(3))
			}
			if err := r.Seal(e, sk); err != nil {
				t.Errorf("seal %d: %v", e, err)
				return
			}
		}
	}()

	// Readers: random spans over whatever is sealed, every entry
	// point, tolerating ErrEmpty/ErrEvicted (the sealer races ahead).
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + i))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				m := masks[(i+n)%len(masks)]
				rg := window.Range{From: rng.Uint64n(epochs), To: window.Open}
				if rng.Uint64n(3) == 0 {
					rg.To = rg.From + 1 + rng.Uint64n(4)
				}
				grouped, err := r.GroupBy(rg, m)
				if err != nil {
					if !errors.Is(err, window.ErrEmpty) && !errors.Is(err, window.ErrEvicted) {
						t.Errorf("reader %d: GroupBy: %v", i, err)
						return
					}
					continue
				}
				eng, err := r.Window(rg)
				if err != nil {
					// The sealer may have evicted the span between the
					// two calls; both outcomes are legal.
					if !errors.Is(err, window.ErrEmpty) && !errors.Is(err, window.ErrEvicted) {
						t.Errorf("reader %d: Window: %v", i, err)
						return
					}
					continue
				}
				var full uint64
				for _, v := range eng.FullTable() {
					full += v
				}
				var mass uint64
				for _, v := range grouped {
					mass += v
				}
				// grouped and eng may come from different resolutions
				// (the ring moved between calls); both must still be
				// internally mass-conserving, which we check on the
				// engine snapshot.
				var engMass uint64
				for _, v := range eng.GroupBy(m) {
					engMass += v
				}
				if engMass != full {
					t.Errorf("reader %d: grouped mass %d != full mass %d", i, engMass, full)
					return
				}
				_ = mass
				if _, err := r.Top(rg, m, 3); err != nil &&
					!errors.Is(err, window.ErrEmpty) && !errors.Is(err, window.ErrEvicted) {
					t.Errorf("reader %d: Top: %v", i, err)
					return
				}
				if _, err := r.Query(rg, m, raceTuple(uint64(n))); err != nil &&
					!errors.Is(err, window.ErrEmpty) && !errors.Is(err, window.ErrEvicted) {
					t.Errorf("reader %d: Query: %v", i, err)
					return
				}
				if _, err := r.SQL("SELECT SrcIP/24, SUM(Size) FROM table GROUP BY SrcIP/24", rg); err != nil &&
					!errors.Is(err, window.ErrEmpty) && !errors.Is(err, window.ErrEvicted) {
					t.Errorf("reader %d: SQL: %v", i, err)
					return
				}
			}
		}(i)
	}

	// Churners: subscribe/unsubscribe continuously while seals fire.
	events := make(chan window.Event, 256)
	for i := 0; i < churn; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := r.Subscribe(window.Subscription{
					Kind:     window.HeavyHitter,
					Mask:     masks[i%len(masks)],
					Fraction: 0.05,
				}, events)
				r.Unsubscribe(id)
			}
		}(i)
	}

	// Drainer: consume events until the sealer finishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case ev := <-events:
				if ev.Kind != window.HeavyHitter {
					t.Errorf("unexpected event kind %v", ev.Kind)
					return
				}
			}
		}
	}()

	wg.Wait()
}

package window_test

// Co-located query-vs-ingest benchmark and the `make bench-query`
// gates: a sealer drives the ring at line rate while query goroutines
// hammer the windowed API, and the run must sustain the QPS floor with
// a healthy cache hit ratio. The gate test is env-gated (COCO_QUERY_GATE=1,
// set by `make bench-query`) so plain `go test ./...` stays fast.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

const (
	// gateQPS is the acceptance floor: sustained windowed-query
	// throughput while ingest runs at line rate.
	gateQPS = 10_000
	// gateIngestPPS keeps the sealer honest — the query load must not
	// starve ingest below this floor.
	gateIngestPPS = 100_000
	// gateHitRatio is the result-cache floor for the steady-state query
	// mix (repeated windows over a slowly advancing ring). The ratio
	// counts result-cache hits only: windows are served from per-epoch
	// views, and no cache of merged window engines exists any more.
	gateHitRatio = 0.5
)

// TestQueryServingGate is the `make bench-query` gate. It runs ingest
// (insert + periodic seal) and a pool of query readers concurrently for
// a fixed wall-clock budget, then enforces the QPS, ingest and
// cache-hit-ratio floors.
func TestQueryServingGate(t *testing.T) {
	if os.Getenv("COCO_QUERY_GATE") == "" {
		t.Skip("set COCO_QUERY_GATE=1 (make bench-query) to run the query-serving gate")
	}
	cfg := core.ConfigForMemory[flowkey.FiveTuple](2, 64<<10, 77)
	reg := telemetry.New()
	r := window.NewRing(8, cfg).SetTelemetry(reg)

	masks := testMasks(t)
	const duration = 2 * time.Second
	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}

	var (
		stop     atomic.Bool
		queries  atomic.Uint64
		inserted atomic.Uint64
		wg       sync.WaitGroup
	)

	// Ingest: insert at line rate, sealing an epoch every 100k packets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(5)
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		epoch := uint64(0)
		var n uint64
		for !stop.Load() {
			sk.Insert(raceTuple(rng.Uint64n(4096)), 1+rng.Uint64n(1400))
			n++
			inserted.Add(1)
			if n%100_000 == 0 {
				if err := r.Seal(epoch, sk); err != nil {
					t.Errorf("seal %d: %v", epoch, err)
					return
				}
				epoch++
				sk = core.NewBasic[flowkey.FiveTuple](cfg)
			}
		}
	}()

	// Wait for the first seal so queries have something to answer.
	for {
		if _, _, ok := r.Bounds(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Readers: steady-state mix over the retained window.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + i))
			for !stop.Load() {
				m := masks[int(rng.Uint64n(uint64(len(masks))))]
				var err error
				switch rng.Uint64n(4) {
				case 0:
					_, err = r.GroupBy(window.All(), m)
				case 1:
					_, err = r.Top(r.LastN(4), m, 10)
				case 2:
					_, err = r.Query(window.All(), m, raceTuple(rng.Uint64n(4096)))
				default:
					_, err = r.SQL("SELECT SrcIP, SUM(Size) FROM table GROUP BY SrcIP", r.LastN(2))
				}
				if err != nil {
					continue // seal/eviction races are legal
				}
				queries.Add(1)
			}
		}(i)
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	qps := float64(queries.Load()) / duration.Seconds()
	pps := float64(inserted.Load()) / duration.Seconds()
	snap := reg.Snapshot()
	hits, misses := snap.Counters["window.cache_hits"], snap.Counters["window.cache_misses"]
	ratio := float64(hits) / float64(hits+misses)
	sealP50 := snap.Histograms["window.seal_to_visible_ns"].Quantile(0.5)

	t.Logf("query QPS %.0f (floor %d), ingest PPS %.0f (floor %d), cache hit ratio %.3f (floor %.2f), seal p50 %s",
		qps, gateQPS, pps, gateIngestPPS, ratio, gateHitRatio, time.Duration(sealP50))

	if qps < gateQPS {
		t.Errorf("sustained query QPS %.0f below the %d floor", qps, gateQPS)
	}
	if pps < gateIngestPPS {
		t.Errorf("co-located ingest PPS %.0f below the %d floor", pps, gateIngestPPS)
	}
	if hits+misses == 0 || ratio < gateHitRatio {
		t.Errorf("cache hit ratio %.3f below the %.2f floor (hits %d, misses %d)", ratio, gateHitRatio, hits, misses)
	}
}

// benchRing seals n epochs of trace traffic for the micro-benchmarks.
func benchRing(b *testing.B, n int) *window.Ring {
	b.Helper()
	cfg := core.ConfigForMemory[flowkey.FiveTuple](2, 64<<10, 78)
	r := window.NewRing(n, cfg)
	rng := xrand.New(6)
	for e := 0; e < n; e++ {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for p := 0; p < 50_000; p++ {
			sk.Insert(raceTuple(rng.Uint64n(4096)), 1+rng.Uint64n(1400))
		}
		if err := r.Seal(uint64(e), sk); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func BenchmarkWindowGroupByCached(b *testing.B) {
	r := benchRing(b, 8)
	m, err := flowkey.ParseMask("SrcIP")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.GroupBy(window.All(), m); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.GroupBy(window.All(), m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowGroupByUncached(b *testing.B) {
	r := benchRing(b, 8).SetCacheLimit(0)
	m, err := flowkey.ParseMask("SrcIP")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.GroupBy(window.All(), m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowTop compares the uncached ranking of a
// /query?limit=10 request (the Threshold Algorithm over the epochs'
// views) with SQL, which sums every view and sorts every row.
func BenchmarkWindowTop(b *testing.B) {
	r := benchRing(b, 8).SetCacheLimit(0)
	m, err := flowkey.ParseMask("SrcIP")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("top10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Top(window.All(), m, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sql-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.SQL("SELECT SrcIP, SUM(Size) FROM table GROUP BY SrcIP", window.All()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWindowQuery times an uncached point query over benchRing's
// 8 epochs for a mask in use, answered from the epochs' kept views,
// and for a mask past the bound of masks in use, answered by one pass
// over each epoch's columns.
func BenchmarkWindowQuery(b *testing.B) {
	r := benchRing(b, 8).SetCacheLimit(0)
	inUse := flowkey.MaskFields(flowkey.FieldSrcIP)
	if _, err := r.Query(window.All(), inUse, raceTuple(0)); err != nil {
		b.Fatal(err)
	}
	for bits := 1; bits < window.MaxMasks; bits++ {
		m, err := flowkey.ParseMask(fmt.Sprintf("DstIP/%d", bits))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Query(window.All(), m, raceTuple(0)); err != nil {
			b.Fatal(err)
		}
	}
	for _, arm := range []struct {
		name string
		mask flowkey.Mask
	}{{"in-use", inUse}, {"not-in-use", flowkey.MaskFields(flowkey.FieldDstPort)}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Query(window.All(), arm.mask, raceTuple(uint64(i)%4096)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSeal(b *testing.B) {
	cfg := core.ConfigForMemory[flowkey.FiveTuple](2, 64<<10, 79)
	rng := xrand.New(7)
	sketches := make([]*core.Basic[flowkey.FiveTuple], b.N)
	for i := range sketches {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for p := 0; p < 10_000; p++ {
			sk.Insert(raceTuple(rng.Uint64n(4096)), 1)
		}
		sketches[i] = sk
	}
	r := window.NewRing(8, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Seal(uint64(i), sketches[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUnderIngest reports achievable QPS with a live sealer —
// the number the gate floors. Run via `make bench-query`.
func BenchmarkQueryUnderIngest(b *testing.B) {
	cfg := core.ConfigForMemory[flowkey.FiveTuple](2, 64<<10, 80)
	r := window.NewRing(8, cfg)
	m, err := flowkey.ParseMask("SrcIP")
	if err != nil {
		b.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(8)
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		epoch := uint64(0)
		var n uint64
		for !stop.Load() {
			sk.Insert(raceTuple(rng.Uint64n(4096)), 1)
			if n++; n%100_000 == 0 {
				if err := r.Seal(epoch, sk); err != nil {
					b.Errorf("seal: %v", err)
					return
				}
				epoch++
				sk = core.NewBasic[flowkey.FiveTuple](cfg)
			}
		}
	}()
	for {
		if _, _, ok := r.Bounds(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The sealer can evict between LastN and the merge; that race is
		// legal (strict ranges, §16) and just becomes a retry in practice.
		if _, err := r.GroupBy(r.LastN(4), m); err != nil && !errors.Is(err, window.ErrEvicted) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

package window_test

// Differential query-consistency suite (the tentpole invariant):
// every windowed answer served by the ring — merge-of-ring, through
// the cache, at any point of the seal sequence — must be bit-identical
// to the reference single engine built by merging the same epochs'
// sketches directly, with no ring, cache or HTTP machinery involved.
// Property-tested across the oracle regimes, random window spans,
// random epoch splits, and random query/seal interleavings, including
// spans the ring has (partially) evicted.

import (
	"errors"
	"reflect"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/oracle"
	"cocosketch/internal/query"
	"cocosketch/internal/sketch"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// testConfig is the shared small geometry: big enough for non-trivial
// collision structure, small enough to keep the matrix fast.
var testConfig = core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 21}

// testMasks are the partial keys every comparison runs under.
func testMasks(t *testing.T) []flowkey.Mask {
	t.Helper()
	var masks []flowkey.Mask
	for _, spec := range []string{"SrcIP", "SrcIP/24+DstIP", "DstIP+DstPort", "Proto", "SrcIP+DstIP+SrcPort+DstPort+Proto"} {
		m, err := flowkey.ParseMask(spec)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}
	return masks
}

// epochSketches splits tr into n equal chunks and feeds each into its
// own fresh sketch of cfg — the canonical per-epoch seal input.
func epochSketches(cfg core.Config, tr *trace.Trace, n int) []*core.Basic[flowkey.FiveTuple] {
	out := make([]*core.Basic[flowkey.FiveTuple], n)
	per := len(tr.Packets) / n
	for e := 0; e < n; e++ {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		lo, hi := e*per, (e+1)*per
		if e == n-1 {
			hi = len(tr.Packets)
		}
		for i := lo; i < hi; i++ {
			sk.Insert(tr.Packets[i].Key, 1)
		}
		out[e] = sk
	}
	return out
}

// refEngine is the reference single engine: a fresh sketch of cfg
// absorbing the given epoch sketches in ascending order, decoded.
func refEngine(t *testing.T, cfg core.Config, epochs []*core.Basic[flowkey.FiveTuple]) *query.Engine {
	t.Helper()
	agg := core.NewBasic[flowkey.FiveTuple](cfg)
	for _, e := range epochs {
		if err := agg.Merge(e); err != nil {
			t.Fatalf("reference merge: %v", err)
		}
	}
	return query.NewEngine(agg.Decode())
}

// compareWindow asserts every query entry point of the ring agrees
// bit-for-bit with the reference engine over the concrete range
// [from, to) covering refEpochs.
func compareWindow(t *testing.T, r *window.Ring, rg window.Range, ref *query.Engine, masks []flowkey.Mask, rng *xrand.Source) {
	t.Helper()
	eng, err := r.Window(rg)
	if err != nil {
		t.Fatalf("Window(%v): %v", rg, err)
	}
	if !reflect.DeepEqual(eng.FullTable(), ref.FullTable()) {
		t.Fatalf("window %v: merged full table differs from reference", rg)
	}
	for _, m := range masks {
		got, err := r.GroupBy(rg, m)
		if err != nil {
			t.Fatalf("GroupBy(%v, %v): %v", rg, m, err)
		}
		want := ref.GroupBy(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v mask %v: GroupBy differs from reference", rg, m)
		}
		gotTop, err := r.Top(rg, m, 5)
		if err != nil {
			t.Fatalf("Top(%v, %v): %v", rg, m, err)
		}
		if wantTop := ref.Top(m, 5); !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("window %v mask %v: Top differs from reference\n got %v\nwant %v", rg, m, gotTop, wantTop)
		}
		// ref.Top selects with the same sketch.TopK; the fully sorted
		// rows are the independent reference for the selection.
		if wantTop := sketch.Entries(want)[:min(5, len(want))]; !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("window %v mask %v: Top differs from the sorted rows\n got %v\nwant %v", rg, m, gotTop, wantTop)
		}
		// Point queries over a few keys drawn from the reference table
		// (hits) and synthesized (mostly misses).
		for k := range want {
			got, err := r.Query(rg, m, k)
			if err != nil {
				t.Fatalf("Query(%v, %v): %v", rg, m, err)
			}
			if got != want[k] {
				t.Fatalf("window %v mask %v key %v: Query %d != reference %d", rg, m, k, got, want[k])
			}
			break
		}
		var miss flowkey.FiveTuple
		miss.SrcPort = uint16(rng.Uint64n(65536))
		gotMiss, err := r.Query(rg, m, miss)
		if err != nil {
			t.Fatalf("Query miss: %v", err)
		}
		if want := ref.Query(m, miss); gotMiss != want {
			t.Fatalf("window %v mask %v: miss Query %d != reference %d", rg, m, gotMiss, want)
		}
	}
	gotRows, err := r.SQL("SELECT SrcIP/16, SUM(Size) FROM table GROUP BY SrcIP/16", rg)
	if err != nil {
		t.Fatalf("SQL(%v): %v", rg, err)
	}
	m16 := flowkey.MaskFields(flowkey.FieldSrcIP).WithPrefix(flowkey.FieldSrcIP, 16)
	if wantRows := sketch.Entries(ref.GroupBy(m16)); !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("window %v: SQL rows differ from reference", rg)
	}
}

// TestWindowedQueryConsistency is the main differential property test:
// across all four oracle regimes, random epoch splits and random
// spans, with queries interleaved at random points of the seal
// sequence and eviction in play, the ring's answers match the
// reference single engine bit for bit.
func TestWindowedQueryConsistency(t *testing.T) {
	masks := testMasks(t)
	for _, regime := range oracle.Regimes() {
		regime := regime
		t.Run(regime.Name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				rng := xrand.New(seed * 1000)
				tr := regime.Generate(30_000, seed)
				nEpochs := 4 + int(rng.Uint64n(5)) // 4..8
				capacity := 2 + int(rng.Uint64n(uint64(nEpochs-1)))
				epochs := epochSketches(testConfig, tr, nEpochs)
				r := window.NewRing(capacity, testConfig)

				for e := 0; e < nEpochs; e++ {
					// Seal a clone; keep the original for the reference.
					if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
						t.Fatalf("seal epoch %d: %v", e, err)
					}
					// Interleave: after a random subset of seals, fire a
					// few random-span queries.
					if rng.Uint64n(2) == 0 && e > 0 {
						checkRandomSpans(t, r, epochs, masks, rng, e, capacity, 2)
					}
				}
				checkRandomSpans(t, r, epochs, masks, rng, nEpochs-1, capacity, 6)
			}
		})
	}
}

// checkRandomSpans draws random [from, to) spans over the sealed
// epochs 0..sealedMax and compares ring vs reference, expecting
// ErrEvicted whenever the span reaches below the ring's retention.
func checkRandomSpans(t *testing.T, r *window.Ring, epochs []*core.Basic[flowkey.FiveTuple],
	masks []flowkey.Mask, rng *xrand.Source, sealedMax, capacity, n int) {
	t.Helper()
	oldest := 0
	if sealedMax+1 > capacity {
		oldest = sealedMax + 1 - capacity
	}
	for i := 0; i < n; i++ {
		from := int(rng.Uint64n(uint64(sealedMax + 1)))
		to := from + 1 + int(rng.Uint64n(uint64(sealedMax+1-from)))
		rg := window.Range{From: uint64(from), To: uint64(to)}
		if rng.Uint64n(4) == 0 {
			rg.To = window.Open // open-ended: resolves to the newest seal
			to = sealedMax + 1
		}
		if from < oldest {
			if _, err := r.Window(rg); !errors.Is(err, window.ErrEvicted) {
				t.Fatalf("window %v over evicted epochs: err = %v, want ErrEvicted", rg, err)
			}
			continue
		}
		ref := refEngine(t, testConfig, epochs[from:to])
		compareWindow(t, r, rg, ref, masks, rng)
	}
}

// TestWindowedTopMatchesSortedRows checks the bounded top-k selection
// against the fully sorted rows of the reference engine, with the
// result cache on and off: Top(rg, m, k) must be
// sketch.Entries(GroupBy)[:k] row for row for every k, including
// k <= 0 (all rows) and k past the row count, and a repeated (cached)
// call must return the same rows.
func TestWindowedTopMatchesSortedRows(t *testing.T) {
	masks := testMasks(t)
	tr := trace.CAIDALike(24_000, 23)
	const nEpochs = 5
	epochs := epochSketches(testConfig, tr, nEpochs)
	for _, limit := range []int{window.DefaultCacheEntries, 0} {
		r := window.NewRing(nEpochs, testConfig).SetCacheLimit(limit)
		for e, sk := range epochs {
			if err := r.Seal(uint64(e), sk.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		for _, rg := range []window.Range{{From: 0, To: 1}, {From: 1, To: 4}, {From: 0, To: window.Open}} {
			to := min(rg.To, nEpochs)
			ref := refEngine(t, testConfig, epochs[rg.From:to])
			for _, m := range masks {
				rows := sketch.Entries(ref.GroupBy(m))
				for _, k := range []int{-1, 0, 1, 5, 10, len(rows) - 1, len(rows), len(rows) + 5} {
					want := rows
					if k > 0 && k < len(rows) {
						want = rows[:k]
					}
					for pass := 0; pass < 2; pass++ {
						got, err := r.Top(rg, m, k)
						if err != nil {
							t.Fatalf("Top(%v, %v, %d): %v", rg, m, k, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("cache limit %d, window %v mask %v k=%d pass %d: Top differs from the sorted rows",
								limit, rg, m, k, pass)
						}
					}
				}
			}
		}
	}
}

// TestSealOrderIndependence pins that the windowed answer is a pure
// function of the sealed epoch set: two rings fed the same epoch
// sketches — one queried heavily between seals (hot cache), one only
// at the end (cold) — serve bit-identical tables for every span.
func TestSealOrderIndependence(t *testing.T) {
	masks := testMasks(t)
	tr := trace.CAIDALike(20_000, 5)
	const nEpochs = 6
	epochs := epochSketches(testConfig, tr, nEpochs)

	hot := window.NewRing(nEpochs, testConfig)
	cold := window.NewRing(nEpochs, testConfig)
	rng := xrand.New(7)
	for e := 0; e < nEpochs; e++ {
		if err := hot.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
		// Query the hot ring after every seal to populate its cache
		// with partial windows.
		if _, err := hot.GroupBy(window.All(), masks[int(rng.Uint64n(uint64(len(masks))))]); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < nEpochs; e++ {
		if err := cold.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for from := 0; from < nEpochs; from++ {
		for to := from + 1; to <= nEpochs; to++ {
			rg := window.Range{From: uint64(from), To: uint64(to)}
			a, err := hot.Window(rg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := cold.Window(rg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.FullTable(), b.FullTable()) {
				t.Fatalf("window %v: hot and cold rings disagree", rg)
			}
			for _, m := range masks {
				ga, err := hot.GroupBy(rg, m)
				if err != nil {
					t.Fatal(err)
				}
				gb, err := cold.GroupBy(rg, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ga, gb) {
					t.Fatalf("window %v mask %v: hot and cold rings disagree", rg, m)
				}
			}
		}
	}
}

// TestSingleEpochWindowMatchesSealedEngine pins the single-epoch fast
// path: a one-epoch window must serve exactly the sealed epoch's own
// decode (merging one sketch into a fresh aggregate copies it
// verbatim).
func TestSingleEpochWindowMatchesSealedEngine(t *testing.T) {
	tr := trace.CAIDALike(8_000, 11)
	epochs := epochSketches(testConfig, tr, 3)
	r := window.NewRing(3, testConfig)
	for e, sk := range epochs {
		if err := r.Seal(uint64(e), sk.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for e, sk := range epochs {
		eng, err := r.Window(window.Range{From: uint64(e), To: uint64(e) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eng.FullTable(), sk.Decode()) {
			t.Fatalf("epoch %d: single-epoch window differs from the epoch's own decode", e)
		}
	}
}

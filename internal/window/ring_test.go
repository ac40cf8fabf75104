package window_test

// Unit semantics of the ring itself: seal ordering, epochs of any
// geometry, bounds/LastN/resolution arithmetic, eviction accounting,
// the sealed columns and views, the masks-in-use rule and the
// seal-to-visible telemetry.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

func mustSealN(t *testing.T, r *window.Ring, epochs []*core.Basic[flowkey.FiveTuple], n int) {
	t.Helper()
	for e := 0; e < n; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSealRejectsOutOfOrderEpochs(t *testing.T) {
	r := window.NewRing(4, testConfig)
	if err := r.Seal(5, core.NewBasic[flowkey.FiveTuple](testConfig)); err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []uint64{5, 4, 0} {
		if err := r.Seal(epoch, core.NewBasic[flowkey.FiveTuple](testConfig)); !errors.Is(err, window.ErrOrder) {
			t.Fatalf("Seal(%d) after 5: err = %v, want ErrOrder", epoch, err)
		}
	}
	// Sealing below the eviction floor is ErrOrder too.
	r2 := window.NewRing(1, testConfig)
	_ = r2.Seal(1, core.NewBasic[flowkey.FiveTuple](testConfig))
	_ = r2.Seal(2, core.NewBasic[flowkey.FiveTuple](testConfig)) // evicts 1
	if err := r2.Seal(1, core.NewBasic[flowkey.FiveTuple](testConfig)); !errors.Is(err, window.ErrOrder) {
		t.Fatalf("Seal below eviction floor: err = %v, want ErrOrder", err)
	}
}

// TestSealAcceptsAnyGeometry: a window is a sum of tables, so epochs of
// different geometries and seeds seal into one ring and their window
// is the sum of their tables.
func TestSealAcceptsAnyGeometry(t *testing.T) {
	tr := trace.CAIDALike(9_000, 43)
	wide := core.Config{Arrays: testConfig.Arrays, BucketsPerArray: testConfig.BucketsPerArray * 2, Seed: testConfig.Seed}
	seeded := core.Config{Arrays: 3, BucketsPerArray: testConfig.BucketsPerArray / 2, Seed: testConfig.Seed + 1}
	var epochs []*core.Basic[flowkey.FiveTuple]
	for i, cfg := range []core.Config{testConfig, wide, seeded} {
		epochs = append(epochs, epochSketches(cfg, tr, 3)[i])
	}
	r := window.NewRing(3, testConfig)
	for e, sk := range epochs {
		if err := r.Seal(uint64(e), sk.Clone()); err != nil {
			t.Fatalf("Seal of a %d×%d sketch: %v", sk.Arrays(), sk.BucketsPerArray(), err)
		}
	}
	checkAgainstSum(t, r, window.Range{From: 0, To: 3}, epochs, sumMasks())
	var zero flowkey.Mask
	if mass, err := r.Query(window.Range{From: 0, To: 3}, zero, flowkey.FiveTuple{}); err != nil || mass != uint64(len(tr.Packets)) {
		t.Fatalf("window mass %d (err %v), %d packets sealed", mass, err, len(tr.Packets))
	}
}

func TestBoundsLastNAndResolve(t *testing.T) {
	tr := trace.CAIDALike(6_000, 31)
	epochs := epochSketches(testConfig, tr, 6)
	r := window.NewRing(4, testConfig)

	if _, _, ok := r.Bounds(); ok {
		t.Fatal("Bounds on empty ring should report !ok")
	}
	if _, err := r.Window(window.All()); !errors.Is(err, window.ErrEmpty) {
		t.Fatalf("query on empty ring: err = %v, want ErrEmpty", err)
	}

	mustSealN(t, r, epochs, 6) // retains 2..5
	from, to, ok := r.Bounds()
	if !ok || from != 2 || to != 6 {
		t.Fatalf("Bounds = [%d, %d) ok=%v, want [2, 6) true", from, to, ok)
	}
	if et, ev := r.EvictedThrough(); !ev || et != 1 {
		t.Fatalf("EvictedThrough = %d, %v; want 1, true", et, ev)
	}
	if got := r.LastN(2); got != (window.Range{From: 4, To: 6}) {
		t.Fatalf("LastN(2) = %v, want [4, 6)", got)
	}
	if got := r.LastN(99); got != (window.Range{From: 2, To: 6}) {
		t.Fatalf("LastN(99) = %v, want the whole retention [2, 6)", got)
	}

	// Open and oversized ranges canonicalize to the retained span.
	for _, rg := range []window.Range{{From: 2, To: window.Open}, {From: 2, To: 100}} {
		f, tt, err := r.Resolve(rg)
		if err != nil || f != 2 || tt != 6 {
			t.Fatalf("Resolve(%v) = [%d, %d), %v; want [2, 6), nil", rg, f, tt, err)
		}
	}
	if _, _, err := r.Resolve(window.Range{From: 6, To: 9}); !errors.Is(err, window.ErrEmpty) {
		t.Fatalf("Resolve past the newest seal: err = %v, want ErrEmpty", err)
	}
	if _, _, err := r.Resolve(window.Range{From: 3, To: 3}); !errors.Is(err, window.ErrEmpty) {
		t.Fatalf("Resolve of empty range: err = %v, want ErrEmpty", err)
	}
	if _, _, err := r.Resolve(window.Range{From: 1, To: 4}); !errors.Is(err, window.ErrEvicted) {
		t.Fatalf("Resolve reaching eviction: err = %v, want ErrEvicted", err)
	}
}

func TestRingGapsResolveCanonically(t *testing.T) {
	// Epochs need not be contiguous (a collector may skip empty
	// epochs); resolution canonicalizes to the covered seals.
	r := window.NewRing(4, testConfig)
	for _, e := range []uint64{3, 7, 11} {
		if err := r.Seal(e, core.NewBasic[flowkey.FiveTuple](testConfig)); err != nil {
			t.Fatal(err)
		}
	}
	f, tt, err := r.Resolve(window.Range{From: 0, To: 9})
	if err != nil || f != 3 || tt != 8 {
		t.Fatalf("Resolve([0,9)) = [%d, %d), %v; want [3, 8), nil", f, tt, err)
	}
	if _, _, err := r.Resolve(window.Range{From: 4, To: 7}); !errors.Is(err, window.ErrEmpty) {
		t.Fatalf("Resolve inside a gap: err = %v, want ErrEmpty", err)
	}
}

func TestSealTelemetry(t *testing.T) {
	reg := telemetry.New()
	base := time.Unix(1_000_000, 0)
	tick := 0
	clock := func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 3 * time.Millisecond)
	}
	tr := trace.CAIDALike(6_000, 37)
	epochs := epochSketches(testConfig, tr, 5)
	r := window.NewRing(3, testConfig).SetTelemetry(reg).SetClock(clock)
	mustSealN(t, r, epochs, 5)

	snap := reg.Snapshot()
	if got := snap.Counters["window.seals"]; got != 5 {
		t.Fatalf("window.seals = %d, want 5", got)
	}
	if got := snap.Counters["window.evictions"]; got != 2 {
		t.Fatalf("window.evictions = %d, want 2", got)
	}
	if got := snap.Gauges["window.epochs_held"]; got != 3 {
		t.Fatalf("window.epochs_held = %d, want 3", got)
	}
	h := snap.Histograms["window.seal_to_visible_ns"]
	if h.Count() != 5 {
		t.Fatalf("seal_to_visible observations = %d, want 5", h.Count())
	}
	// The deterministic clock advances 3ms per call and Seal reads it
	// twice, so every observation is exactly 3ms.
	if h.Quantile(0.5) > uint64(4*time.Millisecond) {
		t.Fatalf("seal_to_visible p50 = %dns, want ~3ms", h.Quantile(0.5))
	}
}

// TestSealedEpochsAreImmutableSnapshots: a sealed epoch holds a copy of
// its sketch's non-empty buckets in bucket order (later inserts into
// the sketch do not reach it), and each view is built once: key
// columns ascending and distinct, sizes summing to the epoch's mass,
// and a size-descending order over every group.
func TestSealedEpochsAreImmutableSnapshots(t *testing.T) {
	tr := trace.CAIDALike(6_000, 41)
	epochs := epochSketches(testConfig, tr, 2)
	r := window.NewRing(2, testConfig)
	want := make([][]core.Bucket[flowkey.FiveTuple], len(epochs))
	decoded := make([]map[flowkey.FiveTuple]uint64, len(epochs))
	for e, sk := range epochs {
		decoded[e] = sk.Decode()
		for _, b := range sk.Buckets() {
			if b.Val != 0 {
				want[e] = append(want[e], b)
			}
		}
		if err := r.Seal(uint64(e), sk); err != nil {
			t.Fatal(err)
		}
		sk.Insert(flowkey.FiveTuple{Proto: 99}, 1_000) // the ring must not see this
	}
	sealed := r.Sealed()
	if len(sealed) != 2 || sealed[0].Epoch != 0 || sealed[1].Epoch != 1 {
		t.Fatalf("Sealed() = %d epochs, want [0 1]", len(sealed))
	}
	for e, s := range sealed {
		keys, vals := window.SealedColumns(s)
		if len(keys) != len(want[e]) {
			t.Fatalf("epoch %d: %d rows, sketch holds %d non-empty buckets", e, len(keys), len(want[e]))
		}
		var mass uint64
		for i, b := range want[e] {
			if keys[i] != b.Key || vals[i] != b.Val {
				t.Fatalf("epoch %d row %d: (%v, %d), bucket holds (%v, %d)", e, i, keys[i], vals[i], b.Key, b.Val)
			}
			mass += b.Val
		}
		for _, m := range testMasks(t) {
			vk, sums, order, built := window.SealedView(s, m)
			if built {
				t.Fatalf("epoch %d mask %v: view built before any query named the mask", e, m)
			}
			_, again, _, built := window.SealedView(s, m)
			if !built || len(again) > 0 && &again[0] != &sums[0] {
				t.Fatalf("epoch %d mask %v: view rebuilt on second use", e, m)
			}
			var total uint64
			for i := range vk {
				if i > 0 && !flowkeyLess(vk[i-1], vk[i]) {
					t.Fatalf("epoch %d mask %v: keys not strictly ascending at %d", e, m, i)
				}
				if vk[i] != m.Apply(vk[i]) {
					t.Fatalf("epoch %d mask %v: key %v keeps bits the mask drops", e, m, vk[i])
				}
				total += sums[i]
			}
			if total != mass {
				t.Fatalf("epoch %d mask %v: view mass %d, epoch mass %d", e, m, total, mass)
			}
			if len(order) != len(vk) {
				t.Fatalf("epoch %d mask %v: order covers %d of %d groups", e, m, len(order), len(vk))
			}
			for i := 1; i < len(order); i++ {
				if sums[order[i-1]] < sums[order[i]] {
					t.Fatalf("epoch %d mask %v: order not size-descending at %d", e, m, i)
				}
			}
		}
		// testMasks includes the full key, whose view now holds the
		// epoch's columns: the decoded table in ascending key order.
		keys, vals = window.SealedColumns(s)
		got := make(map[flowkey.FiveTuple]uint64, len(keys))
		for i, k := range keys {
			if i > 0 && !flowkeyLess(keys[i-1], k) {
				t.Fatalf("epoch %d: full-key columns not strictly ascending at %d", e, i)
			}
			got[k] = vals[i]
		}
		if !reflect.DeepEqual(got, decoded[e]) {
			t.Fatalf("epoch %d: full-key columns differ from the sketch's decode", e)
		}
	}
	// The returned slice is a copy: truncating it must not affect the
	// ring.
	_ = append(sealed[:0], sealed[1])
	if got := r.Sealed(); len(got) != 2 {
		t.Fatalf("ring lost epochs after caller mutated Sealed() copy: %d", len(got))
	}
}

// flowkeyLess orders keys by their canonical encoding.
func flowkeyLess(a, b flowkey.FiveTuple) bool {
	return string(a.AppendBytes(nil)) < string(b.AppendBytes(nil))
}

// TestSealGroupsMasksInUse pins the masks-in-use rule: once a query or
// a subscription names a mask, every later seal groups the new epoch
// under it; a mask nothing names again drops out once the oldest
// retained epoch sealed after its last naming.
func TestSealGroupsMasksInUse(t *testing.T) {
	tr := trace.CAIDALike(8_000, 47)
	epochs := epochSketches(testConfig, tr, 5)
	r := window.NewRing(3, testConfig)
	src := flowkey.MaskFields(flowkey.FieldSrcIP)
	dst := flowkey.MaskFields(flowkey.FieldDstIP)
	proto := flowkey.MaskFields(flowkey.FieldProto)
	built := func(e int, m flowkey.Mask) bool {
		t.Helper()
		for _, s := range r.Sealed() {
			if s.Epoch == uint64(e) {
				return window.ViewBuilt(s, m)
			}
		}
		t.Fatalf("epoch %d not retained", e)
		return false
	}

	mustSealN(t, r, epochs, 1)
	if _, err := r.Top(r.LastN(1), src, 3); err != nil {
		t.Fatal(err)
	}
	r.Subscribe(window.Subscription{Kind: window.Entropy, Mask: proto}, make(chan window.Event, 8))
	for e := 1; e < 5; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
		// Named while epoch 0 was the newest: in use through the seal
		// that keeps epoch 0 as the oldest retained (epoch 2), dropped
		// from the seal that evicts it (epoch 3) on.
		if got, want := built(e, src), e <= 2; got != want {
			t.Fatalf("epoch %d: SrcIP view built at seal = %v, want %v", e, got, want)
		}
		if !built(e, proto) {
			t.Fatalf("epoch %d: subscription mask not grouped at seal", e)
		}
		if built(e, dst) {
			t.Fatalf("epoch %d: a mask nothing named was grouped at seal", e)
		}
	}
}

// TestMasksInUseAreBounded names three times as many masks as may be
// in use, as a drill-down sweep over prefix lengths does: every answer
// is still the exact sum, no epoch keeps more than MaxMasks views, a
// seal groups the masks in use and no other, and a mask nothing names
// for a full ring frees its place.
func TestMasksInUseAreBounded(t *testing.T) {
	const capacity = 3
	epochs := epochSketches(testConfig, trace.CAIDALike(8_000, 53), 2*capacity+1)
	r := window.NewRing(capacity, testConfig)
	mustSealN(t, r, epochs, capacity)
	masks := make([]flowkey.Mask, 3*window.MaxMasks)
	for i := range masks {
		m, err := flowkey.ParseMask(fmt.Sprintf("SrcIP/%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		masks[i] = m
	}
	for _, m := range masks {
		checkAgainstSum(t, r, r.LastN(capacity), epochs[:capacity], []flowkey.Mask{m})
	}
	if got := window.MasksInUse(r); got != window.MaxMasks {
		t.Fatalf("%d masks in use after naming %d, want the bound %d", got, len(masks), window.MaxMasks)
	}
	for _, s := range r.Sealed() {
		if n := window.ViewCount(s); n > window.MaxMasks {
			t.Fatalf("epoch %d keeps %d views, bound %d", s.Epoch, n, window.MaxMasks)
		}
	}

	// The first MaxMasks masks named are the ones in use: the next seal
	// groups exactly those.
	if err := r.Seal(capacity, epochs[capacity].Clone()); err != nil {
		t.Fatal(err)
	}
	newest := r.Sealed()[capacity-1]
	for i, m := range masks {
		if got, want := window.ViewBuilt(newest, m), i < window.MaxMasks; got != want {
			t.Fatalf("mask %v (named %d of %d): grouped at seal = %v, want %v", m, i+1, len(masks), got, want)
		}
	}

	// Unnamed while a full ring seals, every mask drops out of use, and
	// a newly named one takes a place again.
	for e := capacity + 1; e < 2*capacity; e++ {
		if err := r.Seal(uint64(e), epochs[e].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if got := window.MasksInUse(r); got != 0 {
		t.Fatalf("%d masks still in use after a full ring sealed unnamed", got)
	}
	last := masks[len(masks)-1]
	if _, err := r.GroupBy(r.LastN(1), last); err != nil {
		t.Fatal(err)
	}
	if err := r.Seal(2*capacity, epochs[2*capacity].Clone()); err != nil {
		t.Fatal(err)
	}
	newest = r.Sealed()[capacity-1]
	if !window.ViewBuilt(newest, last) || window.ViewCount(newest) != 1 {
		t.Fatalf("after the ring drained, the one mask named is not the one grouped at seal (%d views)", window.ViewCount(newest))
	}
	checkAgainstSum(t, r, r.LastN(capacity), epochs[capacity+1:], masks)
}

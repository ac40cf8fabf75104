package window_test

// Exactness of the view-served window: Top (the Threshold Algorithm
// for k > 0), SQL, GroupBy and Query over random spans must equal an
// independent sum of the epochs' Decode() tables, grouped by map and
// ranked by sketch.Entries, row for row and tie-break included. The
// fuzz target draws small keys and sizes, so equal sums and keys that
// share a group under a mask are common: a Threshold Algorithm that
// stopped when the k-th sum only equals the threshold fails both.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/oracle"
	"cocosketch/internal/query"
	"cocosketch/internal/sketch"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// sumMasks are the oracle masks plus the zero mask (one group).
func sumMasks() []flowkey.Mask { return append(oracle.Masks(), flowkey.Mask{}) }

// checkAgainstSum compares every entry point of r over rg with the
// independent sum of epochs, the sketches that sealed rg's epochs.
func checkAgainstSum(t *testing.T, r *window.Ring, rg window.Range, epochs []*core.Basic[flowkey.FiveTuple], masks []flowkey.Mask) {
	t.Helper()
	full := make(map[flowkey.FiveTuple]uint64)
	for _, e := range epochs {
		for k, v := range e.Decode() {
			full[k] += v
		}
	}
	for _, m := range masks {
		want := query.ByMask(full, m)
		got, err := r.GroupBy(rg, m)
		if err != nil {
			t.Fatalf("GroupBy(%v, %v): %v", rg, m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v mask %v: GroupBy differs from the sum (%d vs %d groups)", rg, m, len(got), len(want))
		}
		rows := sketch.Entries(want)
		// k arrives from /query's limit, so the largest int must not
		// size anything.
		for _, k := range []int{1, 5, 10, len(rows) - 1, len(rows), len(rows) + 5, math.MaxInt} {
			wantTop := rows
			if k > 0 && k < len(rows) {
				wantTop = rows[:k]
			}
			gotTop, err := r.Top(rg, m, k)
			if err != nil {
				t.Fatalf("Top(%v, %v, %d): %v", rg, m, k, err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) {
				t.Fatalf("window %v mask %v k=%d: Top differs from the sum\n got %v\nwant %v", rg, m, k, gotTop, wantTop)
			}
		}
		stmt := fmt.Sprintf("SELECT %s, SUM(Size) FROM table GROUP BY %s", m, m)
		gotRows, err := r.SQL(stmt, rg)
		if err != nil {
			t.Fatalf("SQL(%q, %v): %v", stmt, rg, err)
		}
		if !reflect.DeepEqual(gotRows, rows) {
			t.Fatalf("window %v mask %v: SQL rows differ from the sum", rg, m)
		}
		// Point queries: the largest groups, every 7th group, and a
		// synthetic key (a miss under all but the coarsest masks).
		for i, row := range rows {
			if i >= 10 && i%7 != 0 {
				continue
			}
			if got, err := r.Query(rg, m, row.Key); err != nil || got != row.Size {
				t.Fatalf("window %v mask %v key %v: Query %d (err %v), sum %d", rg, m, row.Key, got, err, row.Size)
			}
		}
		miss := flowkey.FiveTuple{SrcIP: [4]byte{255, 255, 255, 255}, Proto: 255}
		if got, err := r.Query(rg, m, miss); err != nil || got != want[m.Apply(miss)] {
			t.Fatalf("window %v mask %v: miss Query %d (err %v), sum %d", rg, m, got, err, want[m.Apply(miss)])
		}
	}
}

// TestWindowTopMatchesSum runs the comparison over the oracle's four
// traffic regimes and random spans of a full ring.
func TestWindowTopMatchesSum(t *testing.T) {
	masks := sumMasks()
	for _, regime := range oracle.Regimes() {
		regime := regime
		t.Run(regime.Name, func(t *testing.T) {
			const nEpochs = 6
			rng := xrand.New(91)
			epochs := epochSketches(testConfig, regime.Generate(36_000, 5), nEpochs)
			r := window.NewRing(nEpochs, testConfig)
			for e, sk := range epochs {
				if err := r.Seal(uint64(e), sk.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				from := rng.Uint64n(nEpochs)
				to := from + 1 + rng.Uint64n(nEpochs-from)
				checkAgainstSum(t, r, window.Range{From: from, To: to}, epochs[from:to], masks)
			}
		})
	}
}

// fuzzKey maps a byte to one of 256 keys that differ in a few bits of
// each field, so every mask groups several of them together.
func fuzzKey(b byte) flowkey.FiveTuple {
	return flowkey.FiveTuple{
		SrcIP:   [4]byte{10, 0, 0, b & 7},
		DstIP:   [4]byte{10, 1, 0, b >> 3 & 7},
		SrcPort: uint16(b >> 6 & 1),
		DstPort: 80 + uint16(b>>7),
		Proto:   6,
	}
}

// FuzzWindowTopMatchesSum seals up to four epochs from the input (byte
// 0: epoch count; then one packet per three bytes: epoch, key, size
// 1–4) into 2×64-bucket sketches, and compares the whole window and
// one sub-span chosen by the input with the sum. The tables are large
// enough that a small k stops by the threshold before the scan
// switches to the full sum.
func FuzzWindowTopMatchesSum(f *testing.F) {
	rng := xrand.New(29)
	for i := 0; i < 24; i++ {
		seed := make([]byte, 1+3*(64+rng.Intn(448)))
		for j := range seed {
			seed[j] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3}
	masks := sumMasks()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nEpochs := 1 + int(data[0]%4)
		epochs := make([]*core.Basic[flowkey.FiveTuple], nEpochs)
		for e := range epochs {
			epochs[e] = core.NewBasic[flowkey.FiveTuple](cfg)
		}
		for p := data[1:]; len(p) >= 3; p = p[3:] {
			epochs[int(p[0])%nEpochs].Insert(fuzzKey(p[1]), 1+uint64(p[2]%4))
		}
		r := window.NewRing(nEpochs, cfg)
		for e, sk := range epochs {
			if err := r.Seal(uint64(e), sk.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstSum(t, r, window.Range{From: 0, To: uint64(nEpochs)}, epochs, masks)
		from := int(data[len(data)-1]) % nEpochs
		checkAgainstSum(t, r, window.Range{From: uint64(from), To: uint64(nEpochs)}, epochs[from:], masks)
	})
}

package sketch

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/xrand"
)

func key(i uint32) flowkey.IPv4 { return flowkey.IPv4FromUint32(i) }

func TestKeySize(t *testing.T) {
	if got := KeySize[flowkey.FiveTuple](); got != flowkey.FiveTupleLen {
		t.Fatalf("KeySize[FiveTuple] = %d", got)
	}
	if got := KeySize[flowkey.IPv4](); got != 4 {
		t.Fatalf("KeySize[IPv4] = %d", got)
	}
	if got := KeySize[flowkey.IPPair](); got != 8 {
		t.Fatalf("KeySize[IPPair] = %d", got)
	}
}

func TestEntriesSortedDescending(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 5, key(2): 50, key(3): 20}
	entries := Entries(table)
	if len(entries) != 3 {
		t.Fatalf("len = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Size > entries[i-1].Size {
			t.Fatal("entries not sorted descending")
		}
	}
	if entries[0].Key != key(2) || entries[0].Size != 50 {
		t.Fatalf("top entry = %+v", entries[0])
	}
}

func TestEntriesStableUnderTies(t *testing.T) {
	table := map[flowkey.IPv4]uint64{}
	for i := uint32(0); i < 50; i++ {
		table[key(i)] = 7 // all tied
	}
	a := Entries(table)
	b := Entries(table)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie order not deterministic")
		}
	}
}

func TestTopK(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 1, key(2): 2, key(3): 3, key(4): 4}
	top := TopK(table, 2)
	if len(top) != 2 || top[0].Size != 4 || top[1].Size != 3 {
		t.Fatalf("TopK = %+v", top)
	}
	if got := TopK(table, 99); len(got) != 4 {
		t.Fatalf("TopK over-length = %d entries", len(got))
	}
	if got := TopK(map[flowkey.IPv4]uint64{}, 3); len(got) != 0 {
		t.Fatalf("TopK of empty = %+v", got)
	}
	for _, k := range []int{0, -1, -100} {
		if got := TopK(table, k); len(got) != 0 {
			t.Fatalf("TopK(k=%d) = %+v, want no rows", k, got)
		}
	}
}

// collidingPair returns two 5-tuples whose Hash(0) values are equal,
// so only the canonical-bytes tie-break can order them.
func collidingPair(t *testing.T) (flowkey.FiveTuple, flowkey.FiveTuple) {
	t.Helper()
	a := flowkey.FiveTuple{SrcIP: [4]byte{10, 0, 119, 115}, DstIP: [4]byte{192, 168, 0, 1}, SrcPort: 1234, DstPort: 80, Proto: 6}
	b := a
	b.SrcIP = [4]byte{10, 0, 141, 129}
	if a.Hash(0) != b.Hash(0) {
		t.Fatalf("fixture keys no longer collide: %#x vs %#x", a.Hash(0), b.Hash(0))
	}
	return a, b
}

// TestEntriesTotalOrderUnderHashCollision pins the last tie-break:
// equal sizes and equal Hash(0) are ordered by the canonical key
// bytes, so the row order never depends on map iteration order.
func TestEntriesTotalOrderUnderHashCollision(t *testing.T) {
	a, b := collidingPair(t)
	table := map[flowkey.FiveTuple]uint64{a: 5, b: 5}
	want := []Entry[flowkey.FiveTuple]{{Key: a, Size: 5}, {Key: b, Size: 5}}
	for i := 0; i < 200; i++ {
		if got := Entries(table); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Entries = %v, want %v", i, got, want)
		}
		if got := TopK(table, 1); !reflect.DeepEqual(got, want[:1]) {
			t.Fatalf("call %d: TopK(1) = %v, want %v", i, got, want[:1])
		}
	}
}

// referenceOrder sorts a table's rows with the documented order spelled
// out directly, re-hashing on every comparison.
func referenceOrder[K flowkey.Key](table map[K]uint64) []Entry[K] {
	rows := make([]Entry[K], 0, len(table))
	for k, v := range table {
		rows = append(rows, Entry[K]{Key: k, Size: v})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		if ha, hb := a.Key.Hash(0), b.Key.Hash(0); ha != hb {
			return ha < hb
		}
		return bytes.Compare(a.Key.AppendBytes(nil), b.Key.AppendBytes(nil)) < 0
	})
	return rows
}

// checkTopKDifferential asserts Entries follows the reference order and
// TopK(table, k) is Entries(table)[:min(k, len)] row for row.
func checkTopKDifferential[K flowkey.Key](t *testing.T, table map[K]uint64) {
	t.Helper()
	all := Entries(table)
	if want := referenceOrder(table); !reflect.DeepEqual(all, want) {
		t.Fatalf("Entries differs from the reference order over %d rows", len(table))
	}
	n := len(table)
	for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
		want := all[:max(0, min(k, n))]
		if got := TopK(table, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(k=%d) over %d rows:\n got %v\nwant %v", k, n, got, want)
		}
	}
}

// TestTopKMatchesEntries is the seeded differential test of the
// bounded selection: random tables with heavy size ties, both key
// types, and the Hash(0) collision pair planted in the 5-tuple tables.
func TestTopKMatchesEntries(t *testing.T) {
	a, b := collidingPair(t)
	rng := xrand.New(17)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		sizes := 1 + rng.Uint64n(6) // few distinct sizes: heavy ties
		v4 := make(map[flowkey.IPv4]uint64, n)
		ft := make(map[flowkey.FiveTuple]uint64, n+2)
		for len(v4) < n {
			v4[key(uint32(rng.Uint64n(1<<12)))] = 1 + rng.Uint64n(sizes)
		}
		for len(ft) < n {
			var k flowkey.FiveTuple
			k.SrcIP = key(uint32(rng.Uint64n(1 << 10)))
			k.DstPort = uint16(rng.Uint64n(4))
			k.Proto = 6
			ft[k] = 1 + rng.Uint64n(sizes)
		}
		s := 1 + rng.Uint64n(sizes)
		ft[a], ft[b] = s, s
		checkTopKDifferential(t, v4)
		checkTopKDifferential(t, ft)
	}
}

func TestTotalWeight(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 10, key(2): 100}
	if got := TotalWeight(table); got != 110 {
		t.Fatalf("TotalWeight = %d", got)
	}
	if got := TotalWeight(map[flowkey.IPv4]uint64{}); got != 0 {
		t.Fatalf("TotalWeight(empty) = %d", got)
	}
}

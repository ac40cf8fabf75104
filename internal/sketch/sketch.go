// Package sketch defines the interfaces shared by CocoSketch and every
// baseline algorithm, plus small helpers used across the evaluation
// harness (key sizing, top-k extraction, full-key tables).
package sketch

import (
	"bytes"
	"cmp"
	"slices"

	"cocosketch/internal/flowkey"
)

// Sketch is the common contract of all flow-size summaries: a stream of
// (key, weight) updates followed by point queries. Implementations are
// not safe for concurrent use unless documented otherwise.
type Sketch[K flowkey.Key] interface {
	// Insert adds weight w to flow key.
	Insert(key K, w uint64)
	// Query returns the estimated size of flow key (0 if unknown).
	Query(key K) uint64
	// MemoryBytes reports the configured data-plane memory footprint.
	MemoryBytes() int
	// Name identifies the algorithm in experiment tables.
	Name() string
}

// Decoder is implemented by sketches that can enumerate the full-key
// flows they currently record — the control-plane "Step 3" of the paper
// (build the table of full keys). The returned table maps each recorded
// full key to its estimated size.
type Decoder[K flowkey.Key] interface {
	Sketch[K]
	Decode() map[K]uint64
}

// KeySize returns the canonical encoding length in bytes of key type K.
func KeySize[K flowkey.Key]() int {
	var zero K
	return len(zero.AppendBytes(nil))
}

// Entry is one row of a decoded full-key table.
type Entry[K flowkey.Key] struct {
	Key  K
	Size uint64
}

// TopK returns the k largest entries of a table in Entries order:
// exactly Entries(table)[:k], selected with a size-k heap instead of
// sorting every row. A row's key is hashed only when its size can
// enter the heap. k <= 0 returns no rows; k >= len(table) returns
// Entries(table).
func TopK[K flowkey.Key](table map[K]uint64, k int) []Entry[K] {
	if k <= 0 {
		return []Entry[K]{}
	}
	if k >= len(table) {
		return Entries(table)
	}
	// h is a heap whose root is the kept row that ranks last, so a row
	// enters by replacing the root.
	h := make([]ranked[K], 0, k)
	for key, v := range table {
		if len(h) < k {
			h = append(h, ranked[K]{Entry[K]{key, v}, key.Hash(0)})
			for i := len(h) - 1; i > 0; {
				up := (i - 1) / 2
				if compare(h[up], h[i]) > 0 {
					break
				}
				h[up], h[i] = h[i], h[up]
				i = up
			}
			continue
		}
		if v < h[0].Size {
			continue
		}
		row := ranked[K]{Entry[K]{key, v}, key.Hash(0)}
		if compare(row, h[0]) > 0 {
			continue
		}
		h[0] = row
		for i := 0; ; {
			last := i
			if l := 2*i + 1; l < k && compare(h[l], h[last]) > 0 {
				last = l
			}
			if r := 2*i + 2; r < k && compare(h[r], h[last]) > 0 {
				last = r
			}
			if last == i {
				break
			}
			h[i], h[last] = h[last], h[i]
			i = last
		}
	}
	return sortRanked(h)
}

// Entries flattens a table into rows in a total order: size
// descending, then Key.Hash(0) ascending, then the canonical key bytes
// (AppendBytes) ascending. The order depends only on the table's
// contents, never on map iteration order. Each key is hashed once,
// before the sort.
func Entries[K flowkey.Key](table map[K]uint64) []Entry[K] {
	rs := make([]ranked[K], 0, len(table))
	for k, v := range table {
		rs = append(rs, ranked[K]{Entry[K]{k, v}, k.Hash(0)})
	}
	return sortRanked(rs)
}

// ranked is a row with its key's Hash(0), computed once.
type ranked[K flowkey.Key] struct {
	Entry[K]
	hash uint32
}

// compare orders rows as Entries does: negative when a comes first.
// Distinct keys never compare equal.
func compare[K flowkey.Key](a, b ranked[K]) int {
	switch {
	case a.Size != b.Size:
		return cmp.Compare(b.Size, a.Size)
	case a.hash != b.hash:
		return cmp.Compare(a.hash, b.hash)
	}
	var ab, bb [32]byte
	return bytes.Compare(a.Key.AppendBytes(ab[:0]), b.Key.AppendBytes(bb[:0]))
}

// sortRanked sorts rows into Entries order and strips the hashes.
func sortRanked[K flowkey.Key](rs []ranked[K]) []Entry[K] {
	slices.SortFunc(rs, compare[K])
	out := make([]Entry[K], len(rs))
	for i := range rs {
		out[i] = rs[i].Entry
	}
	return out
}

// TotalWeight sums the sizes in a table.
func TotalWeight[K flowkey.Key](table map[K]uint64) uint64 {
	var sum uint64
	for _, v := range table {
		sum += v
	}
	return sum
}

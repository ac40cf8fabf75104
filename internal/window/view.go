package window

import (
	"encoding/binary"
	"sync"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/keysort"
	"cocosketch/internal/sketch"
)

// Per-epoch grouped views and the two ways a window combines them:
// an exact merge-sum for whole-table answers, and Fagin's Threshold
// Algorithm for top-k. A window's answer is the sum of its epochs'
// tables (the paper's subset sums are linear, Def. 1), so no query
// merges sketches and no answer depends on the order epochs sealed in.

// pack returns k's canonical encoding packed as a keysort.Key:
// comparing packed keys compares encodings, and a mask is an AND.
func pack(k flowkey.FiveTuple) keysort.Key {
	var b [keysort.MaxKeySize]byte
	k.AppendBytes(b[:0])
	return keysort.Of(&b)
}

// unpack returns the FiveTuple whose encoding p packs, read straight
// from the words: result tables unpack every row, and going through
// the bytes and flowkey.FiveTupleFromBytes (not inlined) made an
// uncached GroupBy about 7% slower.
func unpack(p keysort.Key) flowkey.FiveTuple {
	var k flowkey.FiveTuple
	binary.BigEndian.PutUint32(k.SrcIP[:], uint32(p.Hi>>32))
	binary.BigEndian.PutUint32(k.DstIP[:], uint32(p.Hi))
	k.SrcPort = uint16(p.Lo >> 48)
	k.DstPort = uint16(p.Lo >> 32)
	k.Proto = uint8(p.Lo >> 24)
	return k
}

// maskBits returns the packed bits m keeps: a mask keeps a prefix of
// each field, so applying it is an AND with its image of the all-ones
// key.
func maskBits(m flowkey.Mask) keysort.Key {
	ones := flowkey.FiveTuple{
		SrcIP: [4]byte{0xff, 0xff, 0xff, 0xff}, DstIP: [4]byte{0xff, 0xff, 0xff, 0xff},
		SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff,
	}
	return pack(m.Apply(ones))
}

// view is one sealed epoch grouped under one mask, as three columns:
// the distinct partial keys in ascending order, each group's summed
// size, and the group indices in size-descending order (ties in key
// order). 28 bytes a row and no map. It is built once and never
// changes afterwards.
type view struct {
	mask  flowkey.Mask
	once  sync.Once
	keys  []keysort.Key
	sums  []uint64
	order []uint32
}

// build groups the epoch's full-key columns under v.mask. Equal
// partial keys are summed, as are duplicate full keys (Basic.Decode
// sums them too).
func (v *view) build(keys []keysort.Key, vals []uint64) {
	mb := maskBits(v.mask)
	rows := make([]keysort.Row[uint64], len(keys))
	for i, k := range keys {
		rows[i] = keysort.Row[uint64]{Key: k.And(mb), Val: vals[i]}
	}
	rows = keysort.Sort(rows, make([]keysort.Row[uint64], len(rows)))
	n := keysort.Distinct(rows)
	v.keys, v.sums = make([]keysort.Key, n), make([]uint64, n)
	g := -1
	for i := range rows {
		if i == 0 || rows[i].Key != rows[i-1].Key {
			g++
			v.keys[g] = rows[i].Key
		}
		v.sums[g] += rows[i].Val
	}
	v.order = sizeOrder(v.sums)
}

// sizeOrder returns the indices of sums in size-descending order, ties
// in index order: a stable radix sort on the complemented sizes,
// skipping the bytes all sizes share.
func sizeOrder(sums []uint64) []uint32 {
	order, tmp := make([]uint32, len(sums)), make([]uint32, len(sums))
	var or, and uint64 = 0, ^uint64(0)
	for i, s := range sums {
		order[i] = uint32(i)
		or, and = or|s, and&s
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var start [256]int
		for _, i := range order {
			start[^sums[i]>>shift&0xff]++
		}
		sum := 0
		for d, n := range start {
			start[d] = sum
			sum += n
		}
		for _, i := range order {
			d := ^sums[i] >> shift & 0xff
			tmp[start[d]] = i
			start[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// find returns the index of group key in v, and whether v has it.
func (v *view) find(key keysort.Key) (int, bool) {
	lo, hi := 0, len(v.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.keys[mid].Less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.keys) && v.keys[lo] == key
}

// sumViews returns the sum of the views as key-ascending columns, every
// key once with the sum of its sizes: the views are merged in pairs,
// then the pairs' sums in pairs, and so on. One view is returned as it
// is; callers must not modify the columns.
func sumViews(vs []*view) ([]keysort.Key, []uint64) {
	level := make([]columns, len(vs))
	for i, v := range vs {
		level[i] = columns{v.keys, v.sums}
	}
	for len(level) > 1 {
		next := make([]columns, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, mergeSum(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0].keys, level[0].sums
}

// columns is a key-ascending table.
type columns struct {
	keys []keysort.Key
	sums []uint64
}

// mergeSum returns the sum of two key-ascending tables.
func mergeSum(a, b columns) columns {
	n := len(a.keys) + len(b.keys)
	out := columns{make([]keysort.Key, 0, n), make([]uint64, 0, n)}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		ka, kb := a.keys[i], b.keys[j]
		switch {
		case ka.Less(kb):
			out.keys, out.sums = append(out.keys, ka), append(out.sums, a.sums[i])
			i++
		case kb.Less(ka):
			out.keys, out.sums = append(out.keys, kb), append(out.sums, b.sums[j])
			j++
		default:
			out.keys, out.sums = append(out.keys, ka), append(out.sums, a.sums[i]+b.sums[j])
			i, j = i+1, j+1
		}
	}
	out.keys, out.sums = append(out.keys, a.keys[i:]...), append(out.sums, a.sums[i:]...)
	out.keys, out.sums = append(out.keys, b.keys[j:]...), append(out.sums, b.sums[j:]...)
	return out
}

// table returns key-ascending columns as a partial-key table.
func table(keys []keysort.Key, sums []uint64) map[flowkey.FiveTuple]uint64 {
	out := make(map[flowkey.FiveTuple]uint64, len(keys))
	for i, k := range keys {
		out[unpack(k)] = sums[i]
	}
	return out
}

// topSum returns the k > 0 largest groups of the views' sum in
// sketch.Entries order, by Fagin's Threshold Algorithm (Fagin, Lotem,
// Naor, PODS 2001). It reads the views' size orders one depth at a
// time; every key first seen gets its exact sum by binary search in
// each view. After each depth the threshold τ, the sum of the sizes
// just read, bounds the sum of any key not seen yet. The scan stops
// once k keys are seen and the k-th largest sum is strictly greater
// than τ: every unseen key then ranks below the k-th row, ties
// included, so the first k rows of the seen keys are the first k rows
// of the full sum.
//
// On flat size distributions the threshold falls slowly and the scan
// would look up nearly every key in every view. A lookup costs about
// as much as summing four rows (3.6 ms for 33k lookups against 0.8 ms
// to sum 25k rows, BenchmarkWindowTop), so once the lookups reach a
// quarter of the views' rows the scan has spent about what the full sum
// costs and switches to it: a query costs at most about twice the
// cheaper of the two.
func topSum(vs []*view, k int) []sketch.Entry[flowkey.FiveTuple] {
	rows := 0
	for _, v := range vs {
		rows += len(v.keys)
	}
	seen := make(map[keysort.Key]uint64)
	// kth is a min-heap of the k largest sums seen; kth[0] is the k-th.
	// k comes from a request, so the heap is sized by the rows, not k.
	kth := make([]uint64, 0, min(k, rows))
	for depth := 0; ; depth++ {
		var tau uint64
		more := false
		for _, v := range vs {
			if depth >= len(v.order) {
				continue
			}
			more = true
			g := v.order[depth]
			tau += v.sums[g]
			key := v.keys[g]
			if _, ok := seen[key]; ok {
				continue
			}
			var sum uint64
			for _, w := range vs {
				if r, ok := w.find(key); ok {
					sum += w.sums[r]
				}
			}
			seen[key] = sum
			kth = pushKth(kth, k, sum)
		}
		if !more || len(kth) == k && kth[0] > tau {
			break
		}
		if 4*len(seen)*len(vs) >= rows {
			keys, sums := sumViews(vs)
			return firstK(keys, sums, k)
		}
	}
	keys, sums := make([]keysort.Key, 0, len(seen)), make([]uint64, 0, len(seen))
	for key, sum := range seen {
		keys, sums = append(keys, key), append(sums, sum)
	}
	return firstK(keys, sums, k)
}

// firstK returns the first k rows, in sketch.Entries order, of the
// table held in columns: only the keys whose sum reaches the k-th
// largest can be among them, so only those are ranked.
func firstK(keys []keysort.Key, sums []uint64, k int) []sketch.Entry[flowkey.FiveTuple] {
	kth := make([]uint64, 0, min(k, len(sums)))
	for _, sum := range sums {
		kth = pushKth(kth, k, sum)
	}
	var floor uint64
	if len(kth) == k {
		floor = kth[0]
	}
	top := make(map[flowkey.FiveTuple]uint64)
	for i, sum := range sums {
		if sum >= floor {
			top[unpack(keys[i])] = sum
		}
	}
	return sketch.TopK(top, k)
}

// pushKth offers sum to h, a min-heap of at most k sums that keeps the
// largest ones, and returns the heap.
func pushKth(h []uint64, k int, sum uint64) []uint64 {
	if len(h) < k {
		h = append(h, sum)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if h[up] <= h[i] {
				break
			}
			h[up], h[i] = h[i], h[up]
			i = up
		}
		return h
	}
	if sum <= h[0] {
		return h
	}
	h[0] = sum
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return h
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Package keysort orders flow keys by their canonical encodings. A key
// of at most MaxKeySize bytes packs into two big-endian words (Key)
// that compare as its bytes do, and Sort orders keyed rows by that
// packing with a least-significant-digit radix sort. The CRPT encoder
// (internal/report) and the window tier's grouped views
// (internal/window) both sort this way.
package keysort

import "encoding/binary"

// MaxKeySize is the widest canonical encoding a Key holds. Every key
// type in flowkey fits.
const MaxKeySize = 16

// Key is a canonical key encoding as two zero-padded big-endian words,
// Hi holding bytes 0–7 and Lo bytes 8–15: comparing Keys compares
// encodings, and a mask that keeps a prefix of each field is a bitwise
// AND. A struct rather than an array, so the compiler keeps a Key in
// registers: with [2]uint64 the window tier's merge-sum ran about a
// fifth slower.
type Key struct{ Hi, Lo uint64 }

// Of packs the canonical encoding b holds, followed by zero padding.
func Of(b *[MaxKeySize]byte) Key {
	return Key{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// Put writes the bytes k packs to b: the canonical encoding followed
// by zero padding.
func (k Key) Put(b *[MaxKeySize]byte) {
	binary.BigEndian.PutUint64(b[:8], k.Hi)
	binary.BigEndian.PutUint64(b[8:], k.Lo)
}

// Less reports whether k's encoding sorts before q's.
func (k Key) Less(q Key) bool { return k.Hi < q.Hi || k.Hi == q.Hi && k.Lo < q.Lo }

// And returns the bitwise AND of k and q.
func (k Key) And(q Key) Key { return Key{k.Hi & q.Hi, k.Lo & q.Lo} }

// byteShifts returns the shifts that bring byte b of a key down to the
// low byte of Hi>>hi | Lo>>lo: one shift brings the byte down, the
// other is 64 and so clears the other word.
func byteShifts(b int) (hi, lo uint) {
	if b < 8 {
		return uint(56 - 8*b), 64
	}
	return 64, uint(120 - 8*b)
}

// Row is one keyed value while it is sorted.
type Row[V any] struct {
	Key Key
	Val V
}

// Sort sorts rows by key, using tmp (len(rows)) as scratch, and returns
// whichever of the two holds the result. It is a least-significant-
// digit radix sort: one stable counting pass per key byte that is not
// the same in every row, so the cost is linear whatever the keys, a
// mask that zeroes whole bytes sorts in fewer passes, and rows with
// equal keys keep their input order. A comparator sort in its place
// made netwide's seal latency slower than the delta codec CRPT v3
// replaced (DESIGN.md §14) and grouping a window epoch about twenty
// times slower (DESIGN.md §16).
func Sort[V any](rows, tmp []Row[V]) []Row[V] {
	or, and := Key{}, Key{^uint64(0), ^uint64(0)}
	for i := range rows {
		k := rows[i].Key
		or, and = Key{or.Hi | k.Hi, or.Lo | k.Lo}, Key{and.Hi & k.Hi, and.Lo & k.Lo}
	}
	for b := MaxKeySize - 1; b >= 0; b-- {
		hi, lo := byteShifts(b)
		if ((or.Hi^and.Hi)>>hi|(or.Lo^and.Lo)>>lo)&0xff == 0 {
			continue // every key has the same byte here
		}
		var start [256]int
		for i := range rows {
			start[(rows[i].Key.Hi>>hi|rows[i].Key.Lo>>lo)&0xff]++
		}
		sum := 0
		for d, n := range start {
			start[d] = sum
			sum += n
		}
		for i := range rows {
			d := (rows[i].Key.Hi>>hi | rows[i].Key.Lo>>lo) & 0xff
			tmp[start[d]] = rows[i]
			start[d]++
		}
		rows, tmp = tmp, rows
	}
	return rows
}

// Distinct returns the number of distinct keys in key-sorted rows.
func Distinct[V any](rows []Row[V]) int {
	n := 0
	for i := range rows {
		if i == 0 || rows[i].Key != rows[i-1].Key {
			n++
		}
	}
	return n
}

package keysort_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cocosketch/internal/keysort"
)

// encoding returns the bytes k packs.
func encoding(k keysort.Key) []byte {
	var b [keysort.MaxKeySize]byte
	k.Put(&b)
	return b[:]
}

// TestSortMatchesByteOrder sorts keys drawn from a three-letter
// alphabet (so ties and shared bytes are common) and checks the result
// against a stable comparator sort on the encodings, and that Of, Put,
// Less and Distinct agree with those bytes.
func TestSortMatchesByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 300, 5000} {
		rows := make([]keysort.Row[int], n)
		for i := range rows {
			var b [keysort.MaxKeySize]byte
			for j := rng.Intn(keysort.MaxKeySize + 1); j > 0; j-- {
				b[rng.Intn(keysort.MaxKeySize)] = byte(rng.Intn(3))
			}
			rows[i] = keysort.Row[int]{Key: keysort.Of(&b), Val: i}
			if !bytes.Equal(encoding(rows[i].Key), b[:]) {
				t.Fatalf("Put(Of(%x)) = %x", b, encoding(rows[i].Key))
			}
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b keysort.Row[int]) int {
			return bytes.Compare(encoding(a.Key), encoding(b.Key))
		})
		got := keysort.Sort(slices.Clone(rows), make([]keysort.Row[int], n))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Sort differs from a stable sort by encoding", n)
		}
		distinct := 0
		for i := range got {
			if i > 0 {
				c := bytes.Compare(encoding(got[i-1].Key), encoding(got[i].Key))
				if got[i-1].Key.Less(got[i].Key) != (c < 0) || got[i].Key.Less(got[i-1].Key) {
					t.Fatalf("n=%d: Less disagrees with the encodings at row %d", n, i)
				}
			}
			if i == 0 || got[i].Key != got[i-1].Key {
				distinct++
			}
		}
		if d := keysort.Distinct(got); d != distinct {
			t.Fatalf("n=%d: Distinct = %d, want %d", n, d, distinct)
		}
	}
}

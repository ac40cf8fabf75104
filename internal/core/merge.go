package core

import (
	"errors"
	"fmt"

	"cocosketch/internal/flowkey"
)

// Mergeability and compression are the paper's stated future-work
// directions (§8: "the merge technique used in Elastic Sketch can
// adapt to dynamic workloads"). Both operations below preserve the
// unbiasedness of subset-sum estimates: when two buckets collapse into
// one, the surviving key is chosen with probability proportional to
// its mass — exactly the stochastic variance minimization rule applied
// to the aggregate.

// ErrIncompatible reports a merge between sketches of different
// geometry or hash seeds.
var ErrIncompatible = errors.New("core: sketches are not mergeable (geometry or seeds differ)")

// mergeBuckets collapses b into a, keeping a's key with probability
// proportional to a's mass.
func mergeBuckets[K flowkey.Key](t *table[K], a, b *Bucket[K]) {
	if b.Val == 0 {
		return
	}
	if a.Val == 0 || a.Key == b.Key {
		a.Val += b.Val
		if a.Val-b.Val == 0 {
			a.Key = b.Key
		}
		return
	}
	total := a.Val + b.Val
	if t.rng.Bernoulli(b.Val, total) {
		a.Key = b.Key
	}
	a.Val = total
}

func (t *table[K]) compatible(o *table[K]) bool {
	if t.d != o.d || t.l != o.l {
		return false
	}
	for i, s := range t.seeds {
		if o.seeds[i] != s {
			return false
		}
	}
	return true
}

// mergeTable folds other's buckets into t bucket-by-bucket.
func (t *table[K]) mergeTable(other *table[K]) error {
	if !t.compatible(other) {
		return ErrIncompatible
	}
	for i := range t.buckets {
		mergeBuckets(t, &t.buckets[i], &other.buckets[i])
	}
	t.ops.merges++
	t.flushTel()
	return nil
}

// Merge folds another basic CocoSketch (same Config) into s, e.g. to
// combine per-thread shards or measurement epochs. The other sketch is
// left unchanged. Estimates on the merged sketch remain unbiased for
// the concatenated stream.
//
// Merging into a freshly constructed (empty) sketch copies the other
// sketch's buckets verbatim and consumes no randomness, which is how
// a multi-queue shard replay folds its queue sketches into one (see
// internal/shard).
func (s *Basic[K]) Merge(other *Basic[K]) error {
	return s.mergeTable(&other.table)
}

// Merge folds another hardware-friendly CocoSketch into s.
func (s *Hardware[K]) Merge(other *Hardware[K]) error {
	return s.mergeTable(&other.table)
}

// Compatible reports whether other shares s's geometry and hash seeds —
// exactly the precondition under which Merge succeeds. It lets a
// receiver (e.g. the network-wide collector) validate a deserialized
// shard before retaining it, instead of discovering the mismatch at
// merge time.
func (s *Basic[K]) Compatible(other *Basic[K]) bool {
	return s.table.compatible(&other.table)
}

// Compatible reports whether other shares s's geometry and hash seeds
// (the Merge precondition), for the hardware-friendly variant.
func (s *Hardware[K]) Compatible(other *Hardware[K]) bool {
	return s.table.compatible(&other.table)
}

// compressTable halves the number of buckets per array repeatedly by
// merging adjacent pairs (2j, 2j+1) into slot j. With multiply-shift
// indexing, index(h) over l/2 buckets equals index(h) over l buckets
// shifted right by one, so a flow keeps addressing its merged bucket.
func (t *table[K]) compressTable(factor int) error {
	if factor < 1 || factor&(factor-1) != 0 {
		return fmt.Errorf("core: compression factor %d must be a power of two", factor)
	}
	for ; factor > 1; factor >>= 1 {
		if t.l%2 != 0 {
			return fmt.Errorf("core: cannot halve %d buckets", t.l)
		}
		half := t.l / 2
		// Compact the flat layout in place: the write position
		// i·half+j never passes the read position i·l+2j, so the
		// forward sweep is safe.
		for i := 0; i < t.d; i++ {
			for j := 0; j < half; j++ {
				merged := t.buckets[i*t.l+2*j]
				mergeBuckets(t, &merged, &t.buckets[i*t.l+2*j+1])
				t.buckets[i*half+j] = merged
			}
		}
		t.buckets = t.buckets[:t.d*half]
		t.l = half
	}
	return nil
}

// Compress shrinks the sketch to 1/factor of its memory (factor must
// be a power of two), adapting to falling memory budgets as Elastic
// does. Note that after compression, bucket addressing uses the new l,
// which maps the pair (j, j+l/2) onto j.
//
// Compression trades accuracy for memory exactly like a smaller sketch
// would; estimates remain unbiased.
func (s *Basic[K]) Compress(factor int) error {
	return s.compressTable(factor)
}

// Compress shrinks the hardware-friendly sketch; see Basic.Compress.
func (s *Hardware[K]) Compress(factor int) error {
	return s.compressTable(factor)
}

// Package core implements CocoSketch, the paper's primary contribution:
// a single d×l array of (full key, value) buckets answering flow-size
// queries for arbitrary partial keys with unbiased, variance-minimized
// estimates.
//
// Two variants are provided, matching §4 of the paper:
//
//   - Basic (software platforms, §4.1): per packet, stochastic variance
//     minimization over the d hashed buckets — increment a matching
//     bucket, else increment the minimum bucket and replace its key with
//     probability w/V.
//   - Hardware (RMT/FPGA, §4.2): the d arrays update independently
//     (circular dependencies removed); queries take the median of the
//     per-array estimates.
//
// Neither variant is safe for concurrent use; shard per goroutine (see
// package shard) for multi-threaded pipelines.
package core

import (
	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/xrand"
)

// Bucket is one (key, value) slot. Value==0 means the slot is empty.
type Bucket[K flowkey.Key] struct {
	Key K
	Val uint64
}

// Config parameterizes a CocoSketch.
type Config struct {
	// Arrays is d, the number of bucket arrays (hash functions).
	// The paper's default is 2.
	Arrays int
	// BucketsPerArray is l. Total buckets M = Arrays × BucketsPerArray.
	BucketsPerArray int
	// Seed makes hash functions and replacement draws reproducible.
	Seed uint64
}

// DefaultArrays is the paper's default d.
const DefaultArrays = 2

// BucketBytes returns the per-bucket memory charge for key type K:
// key bytes plus an 8-byte counter, as in the paper's accounting.
func BucketBytes[K flowkey.Key]() int { return sketch.KeySize[K]() + 8 }

// ConfigForMemory returns a Config with d arrays fitting a total memory
// budget for key type K. At least one bucket per array is allocated.
func ConfigForMemory[K flowkey.Key](d, memoryBytes int, seed uint64) Config {
	if d <= 0 {
		panic("core: Arrays must be positive")
	}
	l := memoryBytes / (d * BucketBytes[K]())
	if l < 1 {
		l = 1
	}
	return Config{Arrays: d, BucketsPerArray: l, Seed: seed}
}

// table holds the state shared by both variants. Buckets live in one
// contiguous slice (bucket (i,j) of the logical d×l grid is at i·l+j)
// so the per-packet walk over the d arrays touches memory behind a
// single base pointer instead of chasing d slice headers.
type table[K flowkey.Key] struct {
	d, l    int
	seeds   []uint32
	buckets []Bucket[K]
	rng     *xrand.Source
	// hbuf is the per-insert scratch for the d hash lanes (len d).
	// Sketches are single-goroutine (see package comment), so one
	// buffer per table keeps every insert and query allocation-free.
	hbuf []uint32
	// idxbuf holds precomputed bucket indices for InsertBatch, d per
	// packet; it grows to one chunk and is reused.
	idxbuf []uint32
	// ops tracks update outcomes with plain single-writer counts;
	// tel/telBase flush them as atomic deltas (see telemetry.go).
	ops     opCounts
	tel     *telemetry.SketchMetrics
	telBase opCounts
}

// Seeds returns the d hash seeds a sketch of c places its keys with,
// derived from c.Seed. A report stage names its own seeds, and a
// receiver checks them against these.
func (c Config) Seeds() []uint32 {
	seeds := make([]uint32, c.Arrays)
	sr := xrand.New(c.Seed ^ 0xc0c0c0c0)
	for i := range seeds {
		seeds[i] = uint32(sr.Uint64())
	}
	return seeds
}

func newTable[K flowkey.Key](cfg Config) table[K] {
	if cfg.Arrays <= 0 || cfg.BucketsPerArray <= 0 {
		panic("core: Arrays and BucketsPerArray must be positive")
	}
	return table[K]{
		d:       cfg.Arrays,
		l:       cfg.BucketsPerArray,
		seeds:   cfg.Seeds(),
		buckets: make([]Bucket[K], cfg.Arrays*cfg.BucketsPerArray),
		rng:     xrand.New(cfg.Seed),
		hbuf:    make([]uint32, cfg.Arrays),
	}
}

// index maps a hash to a bucket index without division (multiply-shift
// range reduction).
func (t *table[K]) index(h uint32) int {
	return int((uint64(h) * uint64(t.l)) >> 32)
}

// hashIndices fills t.hbuf with the d bucket indices of key — the d
// lanes of one wide hash (flowkey.Key.HashSeeds), range-reduced — and
// returns the buffer.
func (t *table[K]) hashIndices(key K) []uint32 {
	hs := t.hbuf
	key.HashSeeds(t.seeds, hs)
	for i, h := range hs {
		hs[i] = uint32(t.index(h))
	}
	return hs
}

// insertBatchChunk bounds the index buffer used by InsertBatch: packets
// are processed in chunks, hashing a whole chunk before touching any
// bucket so the hash and update phases each stay in their own working
// set (DPDK-style burst processing).
const insertBatchChunk = 256

// batchIndices hashes keys (one wide hash per key) and returns the
// flat d-per-packet bucket index buffer.
func (t *table[K]) batchIndices(keys []K) []uint32 {
	need := len(keys) * t.d
	if cap(t.idxbuf) < need {
		t.idxbuf = make([]uint32, need)
	}
	idx := t.idxbuf[:need]
	for p := range keys {
		row := idx[p*t.d : (p+1)*t.d]
		keys[p].HashSeeds(t.seeds, row)
		for i, h := range row {
			row[i] = uint32(t.index(h))
		}
	}
	return idx
}

// MemoryBytes reports d·l buckets at BucketBytes each.
func (t *table[K]) MemoryBytes() int {
	return t.d * t.l * BucketBytes[K]()
}

// Arrays returns d.
func (t *table[K]) Arrays() int { return t.d }

// BucketsPerArray returns l.
func (t *table[K]) BucketsPerArray() int { return t.l }

// reseedRNG replaces the replacement-draw random source. Hash seeds
// are untouched, so sketches stay merge-compatible: shard.Engine uses
// this to decorrelate the replacement draws of per-worker sketches
// that must share one Config (and therefore one Config.Seed).
func (t *table[K]) reseedRNG(seed uint64) { t.rng = xrand.New(seed) }

// sumValues returns the sum of all bucket counters (used by invariant
// tests: insertion conserves total weight).
func (t *table[K]) sumValues() uint64 {
	var sum uint64
	for i := range t.buckets {
		sum += t.buckets[i].Val
	}
	return sum
}

// Basic is the software variant (§4.1).
type Basic[K flowkey.Key] struct {
	table[K]
}

// NewBasic constructs a basic CocoSketch.
func NewBasic[K flowkey.Key](cfg Config) *Basic[K] {
	return &Basic[K]{table: newTable[K](cfg)}
}

// NewBasicForMemory constructs a basic CocoSketch with d arrays within a
// memory budget.
func NewBasicForMemory[K flowkey.Key](d, memoryBytes int, seed uint64) *Basic[K] {
	return NewBasic[K](ConfigForMemory[K](d, memoryBytes, seed))
}

// Name implements sketch.Sketch.
func (s *Basic[K]) Name() string { return "CocoSketch" }

// Insert applies stochastic variance minimization to one packet (e, w).
func (s *Basic[K]) Insert(key K, w uint64) {
	if w == 0 {
		return
	}
	s.insertAt(key, w, s.hashIndices(key))
	s.flushTel()
}

// insertAt runs the update with the d bucket indices already computed.
// The control flow (and therefore the RNG draw sequence) is identical
// to the pre-batching per-packet path, which the equivalence tests pin.
func (s *Basic[K]) insertAt(key K, w uint64, idx []uint32) {
	// Pass 1: a matching bucket absorbs the packet with zero variance
	// increment (Theorem 2). Track the minimum bucket along the way,
	// breaking ties uniformly at random (paper §4.1).
	buckets := s.buckets
	minVal := ^uint64(0)
	minPos := -1
	ties := 0
	base := 0
	for i := 0; i < s.d; i++ {
		pos := base + int(idx[i])
		b := &buckets[pos]
		if b.Val != 0 && b.Key == key {
			b.Val += w
			s.ops.matched++
			return
		}
		switch {
		case b.Val < minVal:
			minVal = b.Val
			minPos = pos
			ties = 1
		case b.Val == minVal:
			// Reservoir-sample among equal minima so each is
			// selected with probability 1/ties.
			ties++
			if s.rng.Uint64n(uint64(ties)) == 0 {
				minPos = pos
			}
		}
		base += s.l
	}
	// Pass 2: increment the minimum bucket and replace its key with
	// probability w / V_new (Theorem 1).
	b := &buckets[minPos]
	b.Val += w
	if s.rng.Bernoulli(w, b.Val) {
		b.Key = key
		s.ops.replaced++
	} else {
		s.ops.kept++
	}
}

// InsertBatch inserts keys[p] with weight ws[p] for every p, in order.
// The bucket state, decode output and RNG sequence are bit-identical
// to the equivalent sequence of Insert calls; the batch path only
// reorders the pure hashing work (all keys of a chunk are hashed
// before any bucket is touched), which amortizes bounds checks and
// keeps the two phases in separate working sets.
func (s *Basic[K]) InsertBatch(keys []K, ws []uint64) {
	if len(keys) != len(ws) {
		panic("core: InsertBatch length mismatch")
	}
	for off := 0; off < len(keys); off += insertBatchChunk {
		end := off + insertBatchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		idx := s.batchIndices(chunk)
		for p := range chunk {
			if w := ws[off+p]; w != 0 {
				s.insertAt(chunk[p], w, idx[p*s.d:(p+1)*s.d])
			}
		}
	}
	s.flushTel()
}

// InsertBatchUnit inserts every key with weight 1 (the packet-count
// hot path of the shard workers and the throughput experiments).
func (s *Basic[K]) InsertBatchUnit(keys []K) {
	for off := 0; off < len(keys); off += insertBatchChunk {
		end := off + insertBatchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		idx := s.batchIndices(chunk)
		for p := range chunk {
			s.insertAt(chunk[p], 1, idx[p*s.d:(p+1)*s.d])
		}
	}
	s.flushTel()
}

// Reseed replaces the replacement-draw RNG without touching the hash
// seeds, so the sketch remains mergeable with others of the same
// Config. Shard engines call this so workers sharing a Config do not
// replay identical replacement-draw sequences.
func (s *Basic[K]) Reseed(seed uint64) { s.reseedRNG(seed) }

// Query returns the recorded estimate of a full-key flow, or 0 if the
// flow is not currently tracked.
func (s *Basic[K]) Query(key K) uint64 {
	idx := s.hashIndices(key)
	base := 0
	for i := 0; i < s.d; i++ {
		b := &s.buckets[base+int(idx[i])]
		if b.Val != 0 && b.Key == key {
			return b.Val
		}
		base += s.l
	}
	return 0
}

// Decode builds the full-key table (control-plane Step 3): every
// non-empty bucket contributes its (key, value) pair. A key can only
// occupy one bucket at a time in the basic variant, but duplicates are
// summed defensively.
func (s *Basic[K]) Decode() map[K]uint64 {
	out := make(map[K]uint64, s.d*s.l)
	for i := range s.buckets {
		if s.buckets[i].Val != 0 {
			out[s.buckets[i].Key] += s.buckets[i].Val
		}
	}
	return out
}

// SumValues exposes the total of all counters for invariant checks.
func (s *Basic[K]) SumValues() uint64 { return s.sumValues() }

// Hardware is the hardware-friendly variant (§4.2): each array runs an
// independent d=1 instance of stochastic variance minimization, so the
// update pipeline has no circular dependencies.
type Hardware[K flowkey.Key] struct {
	table[K]
	// divider computes the replacement decision. The exact divider
	// matches the FPGA implementation; an approximate divider models
	// the Tofino math unit (§6.2). See SetDivider.
	divider Divider
}

// Divider decides key replacement given (w, vNew) — it realizes the
// probability w/vNew. Exact division is the FPGA behaviour; the Tofino
// math unit approximates 2^32/vNew from the top 4 bits of vNew.
type Divider interface {
	// Replace reports whether the key should be replaced, drawing
	// randomness from rng.
	Replace(rng *xrand.Source, w, vNew uint64) bool
	Name() string
}

// ExactDivider draws with the exact probability w/vNew.
type ExactDivider struct{}

// Replace implements Divider.
func (ExactDivider) Replace(rng *xrand.Source, w, vNew uint64) bool {
	return rng.Bernoulli(w, vNew)
}

// Name implements Divider.
func (ExactDivider) Name() string { return "exact" }

// NewHardware constructs a hardware-friendly CocoSketch with exact
// division (FPGA behaviour).
func NewHardware[K flowkey.Key](cfg Config) *Hardware[K] {
	return &Hardware[K]{table: newTable[K](cfg), divider: ExactDivider{}}
}

// NewHardwareForMemory constructs a hardware-friendly CocoSketch within
// a memory budget.
func NewHardwareForMemory[K flowkey.Key](d, memoryBytes int, seed uint64) *Hardware[K] {
	return NewHardware[K](ConfigForMemory[K](d, memoryBytes, seed))
}

// SetDivider replaces the division strategy (e.g. rmt.ApproxDivider to
// model the Tofino math unit). It returns the sketch for chaining.
func (s *Hardware[K]) SetDivider(d Divider) *Hardware[K] {
	s.divider = d
	return s
}

// Name implements sketch.Sketch.
func (s *Hardware[K]) Name() string {
	if s.divider.Name() == "exact" {
		return "CocoSketch-HW"
	}
	return "CocoSketch-HW(" + s.divider.Name() + ")"
}

// Insert updates every array independently: always increment the mapped
// bucket; if its key differs, replace with probability w/V_new.
func (s *Hardware[K]) Insert(key K, w uint64) {
	if w == 0 {
		return
	}
	s.insertAt(key, w, s.hashIndices(key))
	s.flushTel()
}

// insertAt runs the update with the d bucket indices already computed;
// the RNG draw sequence matches the per-packet path exactly. Outcomes
// are counted per array (each of the d arrays updates independently).
func (s *Hardware[K]) insertAt(key K, w uint64, idx []uint32) {
	buckets := s.buckets
	base := 0
	for i := 0; i < s.d; i++ {
		b := &buckets[base+int(idx[i])]
		b.Val += w
		switch {
		case b.Key == key:
			s.ops.matched++
		case s.divider.Replace(s.rng, w, b.Val):
			b.Key = key
			s.ops.replaced++
		default:
			s.ops.kept++
		}
		base += s.l
	}
}

// InsertBatch inserts keys[p] with weight ws[p] for every p, in order,
// hashing each chunk before updating any bucket. State and RNG
// sequence are bit-identical to sequential Insert calls.
func (s *Hardware[K]) InsertBatch(keys []K, ws []uint64) {
	if len(keys) != len(ws) {
		panic("core: InsertBatch length mismatch")
	}
	for off := 0; off < len(keys); off += insertBatchChunk {
		end := off + insertBatchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		idx := s.batchIndices(chunk)
		for p := range chunk {
			if w := ws[off+p]; w != 0 {
				s.insertAt(chunk[p], w, idx[p*s.d:(p+1)*s.d])
			}
		}
	}
	s.flushTel()
}

// InsertBatchUnit inserts every key with weight 1.
func (s *Hardware[K]) InsertBatchUnit(keys []K) {
	for off := 0; off < len(keys); off += insertBatchChunk {
		end := off + insertBatchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		idx := s.batchIndices(chunk)
		for p := range chunk {
			s.insertAt(chunk[p], 1, idx[p*s.d:(p+1)*s.d])
		}
	}
	s.flushTel()
}

// Reseed replaces the replacement-draw RNG without touching the hash
// seeds; see Basic.Reseed.
func (s *Hardware[K]) Reseed(seed uint64) { s.reseedRNG(seed) }

// Query returns the median of the per-array estimates, where an array
// not recording the flow contributes 0 (Theorem 3's estimator).
func (s *Hardware[K]) Query(key K) uint64 {
	var est [8]uint64 // d is small; avoid allocation for d <= 8
	vals := est[:0]
	if s.d > len(est) {
		vals = make([]uint64, 0, s.d)
	}
	idx := s.hashIndices(key)
	base := 0
	for i := 0; i < s.d; i++ {
		b := &s.buckets[base+int(idx[i])]
		if b.Val != 0 && b.Key == key {
			vals = append(vals, b.Val)
		} else {
			vals = append(vals, 0)
		}
		base += s.l
	}
	return median(vals)
}

// QueryMean is the ablation combiner: mean instead of median.
func (s *Hardware[K]) QueryMean(key K) uint64 {
	var sum uint64
	idx := s.hashIndices(key)
	base := 0
	for i := 0; i < s.d; i++ {
		b := &s.buckets[base+int(idx[i])]
		if b.Val != 0 && b.Key == key {
			sum += b.Val
		}
		base += s.l
	}
	return sum / uint64(s.d)
}

// Decode builds the full-key table: every distinct recorded key is
// re-queried so its estimate is the cross-array median.
func (s *Hardware[K]) Decode() map[K]uint64 {
	out := make(map[K]uint64, s.d*s.l)
	for i := range s.buckets {
		if s.buckets[i].Val == 0 {
			continue
		}
		k := s.buckets[i].Key
		if _, done := out[k]; !done {
			out[k] = s.Query(k)
		}
	}
	return out
}

// SumValues exposes the total of all counters; in the hardware variant
// every array independently conserves the inserted weight, so the total
// is d times the stream weight.
func (s *Hardware[K]) SumValues() uint64 { return s.sumValues() }

// median returns the middle value (mean of the two middles when even).
// It sorts in place; inputs are tiny (length d).
func median(v []uint64) uint64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	// Insertion sort: d ≤ 8 in practice.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	if n%2 == 1 {
		return v[n/2]
	}
	a, b := v[n/2-1], v[n/2]
	return a + (b-a)/2
}

// interface checks: both variants satisfy the shared contracts.
var (
	_ interface {
		Insert(flowkey.FiveTuple, uint64)
		Query(flowkey.FiveTuple) uint64
		Decode() map[flowkey.FiveTuple]uint64
		MemoryBytes() int
		Name() string
	} = (*Basic[flowkey.FiveTuple])(nil)
	_ interface {
		Insert(flowkey.FiveTuple, uint64)
		Query(flowkey.FiveTuple) uint64
		Decode() map[flowkey.FiveTuple]uint64
		MemoryBytes() int
		Name() string
	} = (*Hardware[flowkey.FiveTuple])(nil)
)

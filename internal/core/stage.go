package core

import (
	"fmt"
	"slices"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
	"cocosketch/internal/xrand"
)

// Stage hooks: the accessors a report codec (internal/report) needs to
// extract a compact "small stage" from an epoch sketch and to rebuild
// one, bucket by bucket, on the collector. The paper's netwide story
// (§5) ships whole sketches; SF-sketch's two-stage split keeps the fat
// stage local and ships a shrunken stage instead, and an invertible
// decode places every reported key by re-hashing it — both need
// positional access to bucket state, which the table keeps private.
// The hooks below are that access, deliberately
// read-mostly: the only mutating ones (NewStage, SetRNGState, Buckets
// on a fresh sketch) exist so a decoder can reconstruct a stage that
// is bit-identical to the one the agent extracted.

// Buckets returns the flat row-major d×l bucket slice (bucket (i,j) at
// i·l+j). Callers must treat it as read-only except when
// reconstructing a freshly constructed, never-inserted sketch on the
// decode path.
func (t *table[K]) Buckets() []Bucket[K] { return t.buckets }

// RNGState returns the replacement-draw RNG state, so a reconstructed
// stage continues the exact deterministic sequence.
func (t *table[K]) RNGState() uint64 { return t.rng.State() }

// SetRNGState restores a previously captured replacement-draw RNG
// state.
func (t *table[K]) SetRNGState(state uint64) { t.rng.SetState(state) }

// Seeds returns the d hash seeds that place keys in this sketch, so a
// report can name them instead of the Config they came from. Callers
// must not modify the slice.
func (t *table[K]) Seeds() []uint32 { return t.seeds }

// NewStage returns an empty basic sketch of len(seeds) arrays of l
// buckets that places keys with the given hash seeds: the shell a
// report decoder rebuilds a stage into when the payload names its
// seeds rather than a Config. It panics if seeds is empty or l is not
// positive, as NewBasic does.
func NewStage[K flowkey.Key](l int, seeds []uint32) *Basic[K] {
	s := NewBasic[K](Config{Arrays: len(seeds), BucketsPerArray: l})
	copy(s.seeds, seeds)
	return s
}

// BucketIndices returns the d bucket indices key hashes to in this
// geometry, one per array — the invertible-decode hook: a decoder
// re-hashes each reported key to find its buckets. The slice is the
// sketch's shared hash buffer, valid until the next hashing call on
// this sketch.
func (t *table[K]) BucketIndices(key K) []uint32 { return t.hashIndices(key) }

// cloneTable deep-copies the bucket array, seeds and RNG state. The
// telemetry hooks are deliberately not copied: a clone is a private
// snapshot (a report stage, a spool entry), not a second live ingest
// path.
func (t *table[K]) cloneTable() table[K] {
	c := table[K]{
		d:       t.d,
		l:       t.l,
		seeds:   append([]uint32(nil), t.seeds...),
		buckets: append([]Bucket[K](nil), t.buckets...),
		rng:     xrand.New(0),
		hbuf:    make([]uint32, t.d),
	}
	c.rng.SetState(t.rng.State())
	return c
}

// Clone returns a deep copy of the sketch: same geometry, seeds,
// bucket contents and RNG state, sharing no mutable state with s.
// Telemetry hooks are not carried over.
func (s *Basic[K]) Clone() *Basic[K] {
	return &Basic[K]{table: s.cloneTable()}
}

// Equal reports whether s and o hold the same state: geometry, hash
// seeds, every bucket's key and counter, and the replacement-draw RNG
// state. Two equal sketches fed the same packets stay equal, so Equal
// is the bit-identity check for a clone, a decoded report stage or a
// replay. Telemetry hooks are not state and are ignored.
func (s *Basic[K]) Equal(o *Basic[K]) bool {
	return s.d == o.d && s.l == o.l &&
		slices.Equal(s.seeds, o.seeds) &&
		slices.Equal(s.buckets, o.buckets) &&
		s.rng.State() == o.rng.State()
}

// Clone returns a deep copy of the hardware-friendly sketch; the
// divider (a stateless strategy) is shared.
func (s *Hardware[K]) Clone() *Hardware[K] {
	return &Hardware[K]{table: s.cloneTable(), divider: s.divider}
}

// ExtractStage returns the "small stage" of s for a report: a deep
// copy compressed to 1/factor of the buckets per array (factor must be
// a power of two dividing l; factor 1 is a plain clone). The receiver
// — the fat stage — is untouched; only the small stage ships.
// Compression merges bucket pairs with the estimate-preserving rule
// (see Compress), so the stage conserves SumValues exactly and its
// estimates remain unbiased with the variance of an l/factor sketch.
func (s *Basic[K]) ExtractStage(factor int) (*Basic[K], error) {
	stage := s.Clone()
	if err := stage.Compress(factor); err != nil {
		return nil, fmt.Errorf("core: extracting stage: %w", err)
	}
	return stage, nil
}

// MarshaledSize returns the raw size of a full snapshot of this
// sketch: a 24-byte header, the d hash seeds, and the d×l buckets, each
// its key bytes plus an 8-byte counter. It is the raw-bytes baseline
// that report telemetry and the benchmarks divide wire bytes by;
// reports themselves ship as CRPT v3 stages (internal/report).
func (t *table[K]) MarshaledSize() int {
	// Magic, version, variant, d, l, key size and RNG state: the header
	// of the snapshot format reports replaced, kept so that ratios
	// against this baseline compare across versions.
	const header = 4 + 1 + 1 + 4 + 4 + 2 + 8
	return header + 4*t.d + t.d*t.l*(sketch.KeySize[K]()+8)
}

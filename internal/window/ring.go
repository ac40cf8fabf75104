// Package window implements the continuous query-serving tier: a
// lock-free ring of sealed per-epoch CocoSketch engines that answers
// window-scoped partial-key queries while ingest keeps running.
//
// The ingest side seals one immutable sketch per measurement epoch
// into a Ring (Seal); readers resolve a [from, to) epoch Range against
// an atomically published snapshot, merge the covered epochs with
// core.Merge into a window engine, and run any partial-key query
// against it — with no lock shared with the sealer. Results are cached
// per (operation, partial key or row limit, window) and invalidated
// when ring eviction makes a window unservable, and standing
// Subscriptions (heavy hitters, heavy changes, entropy collapse) are
// evaluated at every seal and pushed to registered channels.
//
// The windowed answer is a pure function of the sealed epoch set: the
// window sketch is a fresh core.Basic of the shared Config that merges
// the covered epochs in ascending epoch order, so the same epochs give
// the bit-identical table no matter when the query runs relative to
// later seals, whether the cache is on or off, and how many readers
// race (pinned by the differential consistency suite). DESIGN.md §16
// documents the semantics.
package window

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/telemetry"
)

// Open is the To sentinel meaning "through the newest sealed epoch".
// A Range with To == Open re-resolves against the live ring at every
// query, so its answers grow as epochs seal.
const Open = uint64(math.MaxUint64)

// Range selects the sealed epochs e with From <= e < To. To == Open
// (or any To beyond the newest sealed epoch) means "through the newest
// sealed epoch at query time".
type Range struct {
	// From is the first epoch covered (inclusive).
	From uint64
	// To is the first epoch NOT covered (exclusive), or Open.
	To uint64
}

// String renders the range in the from:to syntax ParseRange accepts.
// Note Range{0, Open} renders as "0:", not "*" — the latter is the
// RangeSpec that re-resolves to current retention (never ErrEvicted),
// while the explicit range is pinned at epoch 0.
func (rg Range) String() string {
	if rg.To == Open {
		return fmt.Sprintf("%d:", rg.From)
	}
	return fmt.Sprintf("%d:%d", rg.From, rg.To)
}

// All is the whole-history range: every epoch from 0 on. Queries over
// it fail with ErrEvicted once the ring evicts epoch 0 — use
// Ring.Bounds or LastN for "everything still retained".
func All() Range { return Range{From: 0, To: Open} }

// Errors returned by the query side of the ring.
var (
	// ErrEmpty reports a range that covers no sealed epoch.
	ErrEmpty = errors.New("window: no sealed epochs in range")
	// ErrEvicted reports a range reaching epochs the ring has already
	// evicted; the answer can no longer be computed.
	ErrEvicted = errors.New("window: range reaches evicted epochs")
	// ErrOrder reports a Seal whose epoch does not advance past every
	// previously sealed (or evicted) epoch.
	ErrOrder = errors.New("window: epochs must seal in strictly increasing order")
)

// Sealed is one immutable sealed epoch: the sketch as frozen at seal
// time, its decoded full-key table, and a query engine over it. None
// of the fields may be mutated after Seal returns.
type Sealed struct {
	// Epoch is the epoch number the sealer assigned.
	Epoch uint64
	// Sketch is the frozen per-epoch sketch; window queries merge it.
	Sketch *core.Basic[flowkey.FiveTuple]
	// Table is the sketch's full-key decode, computed once at seal.
	Table map[flowkey.FiveTuple]uint64
	// Engine serves single-epoch partial-key queries over Table.
	Engine *query.Engine
	// SealedAt is the ring-clock time the seal began.
	SealedAt time.Time
}

// ringState is one immutable published snapshot of the ring. Readers
// atomically load it and never see a partially applied seal.
type ringState struct {
	// epochs holds the retained sealed epochs in ascending epoch
	// order (at most the ring capacity).
	epochs []*Sealed
	// evictedThrough is the highest epoch ever evicted (valid only
	// when evicted is true); ranges reaching at or below it fail with
	// ErrEvicted.
	evictedThrough uint64
	evicted        bool
}

// ringTel groups the ring's instruments (nil-safe; nil without
// SetTelemetry).
type ringTel struct {
	seals              *telemetry.Counter
	evictions          *telemetry.Counter
	queries            *telemetry.Counter
	cacheHits          *telemetry.Counter
	cacheMisses        *telemetry.Counter
	cacheInvalidations *telemetry.Counter
	eventsPushed       *telemetry.Counter
	eventsDropped      *telemetry.Counter
	subsActive         *telemetry.Gauge
	epochsHeld         *telemetry.Gauge
	sealVisible        *telemetry.Histogram
}

// Ring is a sliding window of sealed epoch sketches with a lock-free
// read side: Seal publishes a new immutable snapshot through an atomic
// pointer, queries resolve against whatever snapshot is current.
// Seal/Subscribe/Unsubscribe serialize on an internal mutex; all query
// methods are safe for any number of concurrent readers.
type Ring struct {
	capacity int
	cfg      core.Config
	// probe is an empty sketch of cfg used to validate that every
	// sealed sketch is merge-compatible; only read under mu.
	probe *core.Basic[flowkey.FiveTuple]
	state atomic.Pointer[ringState]
	cache *cache
	now   func() time.Time
	tel   ringTel

	// mu serializes sealers and the subscription registry.
	mu      sync.Mutex
	subs    map[int]*subscriber
	nextSub int
}

// DefaultCacheEntries bounds the result cache when SetCacheLimit is
// not called.
const DefaultCacheEntries = 1024

// NewRing creates a ring retaining the newest capacity sealed epochs,
// all sharing cfg (the Merge-compatibility contract). The result cache
// starts enabled at DefaultCacheEntries.
func NewRing(capacity int, cfg core.Config) *Ring {
	if capacity <= 0 {
		panic("window: ring capacity must cover at least one epoch")
	}
	r := &Ring{
		capacity: capacity,
		cfg:      cfg,
		probe:    core.NewBasic[flowkey.FiveTuple](cfg),
		cache:    newCache(DefaultCacheEntries),
		now:      time.Now,
		subs:     make(map[int]*subscriber),
	}
	r.state.Store(&ringState{})
	return r
}

// SetTelemetry registers the ring's instruments ("window."-prefixed)
// on reg; a nil registry disables them. Returns the ring for chaining.
func (r *Ring) SetTelemetry(reg *telemetry.Registry) *Ring {
	r.tel = ringTel{
		seals:              reg.Counter("window.seals"),
		evictions:          reg.Counter("window.evictions"),
		queries:            reg.Counter("window.queries"),
		cacheHits:          reg.Counter("window.cache_hits"),
		cacheMisses:        reg.Counter("window.cache_misses"),
		cacheInvalidations: reg.Counter("window.cache_invalidations"),
		eventsPushed:       reg.Counter("window.events_pushed"),
		eventsDropped:      reg.Counter("window.events_dropped"),
		subsActive:         reg.Gauge("window.subs_active"),
		epochsHeld:         reg.Gauge("window.epochs_held"),
		sealVisible:        reg.Histogram("window.seal_to_visible_ns"),
	}
	return r
}

// SetClock replaces the ring's time source (SealedAt stamps and the
// seal-to-visible histogram); tests install a deterministic clock
// here. Returns the ring for chaining.
func (r *Ring) SetClock(now func() time.Time) *Ring {
	r.now = now
	return r
}

// SetCacheLimit bounds the result cache to n entries per kind (0
// disables caching entirely — every query recomputes). Current cached
// contents are dropped; the eviction floor survives. The metamorphic
// suite pins that answers are bit-identical with the cache on or off.
// Returns the ring for chaining.
func (r *Ring) SetCacheLimit(n int) *Ring {
	r.cache.setLimit(n)
	return r
}

// Capacity returns the maximum number of epochs retained.
func (r *Ring) Capacity() int { return r.capacity }

// Config returns the shared sketch configuration sealed epochs must
// match.
func (r *Ring) Config() core.Config { return r.cfg }

// Sealed returns the retained sealed epochs in ascending epoch order
// (a copy of the snapshot's slice; the Sealed values are shared and
// immutable).
func (r *Ring) Sealed() []*Sealed {
	st := r.state.Load()
	out := make([]*Sealed, len(st.epochs))
	copy(out, st.epochs)
	return out
}

// Bounds returns the retained epoch span [from, to): from is the
// oldest retained epoch, to is the newest plus one. ok is false while
// nothing is sealed.
func (r *Ring) Bounds() (from, to uint64, ok bool) {
	st := r.state.Load()
	if len(st.epochs) == 0 {
		return 0, 0, false
	}
	return st.epochs[0].Epoch, st.epochs[len(st.epochs)-1].Epoch + 1, true
}

// EvictedThrough returns the highest epoch the ring has evicted, and
// whether any eviction has happened yet.
func (r *Ring) EvictedThrough() (uint64, bool) {
	st := r.state.Load()
	return st.evictedThrough, st.evicted
}

// LastN returns the concrete range covering the newest n sealed epochs
// (fewer if the ring holds fewer). The range is resolved now: it does
// not slide as later epochs seal.
func (r *Ring) LastN(n int) Range {
	st := r.state.Load()
	if n <= 0 || len(st.epochs) == 0 {
		return Range{}
	}
	if n > len(st.epochs) {
		n = len(st.epochs)
	}
	return Range{
		From: st.epochs[len(st.epochs)-n].Epoch,
		To:   st.epochs[len(st.epochs)-1].Epoch + 1,
	}
}

// Seal freezes one epoch into the ring: sk is decoded, published as
// the newest sealed epoch, and — once the ring exceeds its capacity —
// the oldest epoch is evicted and every cached result whose window
// reaches it is invalidated. Standing subscriptions are evaluated
// against the freshly sealed epoch before Seal returns.
//
// The ring takes ownership of sk: the caller must not touch it again
// (pass a Clone to keep inserting). Epochs must arrive in strictly
// increasing order and sk must share the ring's Config; violations
// return ErrOrder / core.ErrIncompatible without changing the ring.
func (r *Ring) Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error {
	start := r.now()
	r.mu.Lock()
	st := r.state.Load()
	if n := len(st.epochs); n > 0 && epoch <= st.epochs[n-1].Epoch {
		r.mu.Unlock()
		return fmt.Errorf("%w (epoch %d, newest sealed %d)", ErrOrder, epoch, st.epochs[n-1].Epoch)
	}
	if st.evicted && epoch <= st.evictedThrough {
		r.mu.Unlock()
		return fmt.Errorf("%w (epoch %d, evicted through %d)", ErrOrder, epoch, st.evictedThrough)
	}
	if !r.probe.Compatible(sk) {
		r.mu.Unlock()
		return fmt.Errorf("window: seal epoch %d: sketch of %d×%d buckets, ring holds %d×%d: %w",
			epoch, sk.Arrays(), sk.BucketsPerArray(), r.probe.Arrays(), r.probe.BucketsPerArray(), core.ErrIncompatible)
	}

	table := sk.Decode()
	sealed := &Sealed{
		Epoch:    epoch,
		Sketch:   sk,
		Table:    table,
		Engine:   query.NewEngine(table),
		SealedAt: start,
	}
	next := &ringState{
		epochs:         append(append(make([]*Sealed, 0, len(st.epochs)+1), st.epochs...), sealed),
		evictedThrough: st.evictedThrough,
		evicted:        st.evicted,
	}
	for len(next.epochs) > r.capacity {
		next.evictedThrough, next.evicted = next.epochs[0].Epoch, true
		next.epochs = next.epochs[1:]
		r.tel.evictions.Inc()
	}
	r.state.Store(next)
	r.tel.seals.Inc()
	r.tel.epochsHeld.Set(int64(len(next.epochs)))
	r.tel.sealVisible.Observe(uint64(r.now().Sub(start)))
	if next.evicted {
		r.tel.cacheInvalidations.Add(r.cache.invalidateEvicted(next.evictedThrough))
	}

	// Snapshot the subscribers under mu; evaluation runs outside it so
	// a slow decode-heavy subscription never blocks Unsubscribe.
	var prev *Sealed
	if n := len(st.epochs); n > 0 {
		prev = st.epochs[n-1]
	}
	subs := make([]*subscriber, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.mu.Unlock()

	r.notify(subs, sealed, prev)
	return nil
}

// resolve canonicalizes rg against the current snapshot: the returned
// span is the covered sealed epochs and [from, to) are the tightest
// concrete bounds (from = first covered epoch, to = last covered
// epoch + 1), which is what cache keys use so that open-ended ranges
// re-resolve per seal while closed ranges stay cacheable forever.
func (r *Ring) resolve(rg Range) (span []*Sealed, from, to uint64, err error) {
	st := r.state.Load()
	if rg.From >= rg.To {
		return nil, 0, 0, ErrEmpty
	}
	if st.evicted && rg.From <= st.evictedThrough {
		return nil, 0, 0, fmt.Errorf("%w (from %d, evicted through %d)", ErrEvicted, rg.From, st.evictedThrough)
	}
	if len(st.epochs) == 0 {
		return nil, 0, 0, ErrEmpty
	}
	lo := 0
	for lo < len(st.epochs) && st.epochs[lo].Epoch < rg.From {
		lo++
	}
	hi := len(st.epochs)
	for hi > lo && st.epochs[hi-1].Epoch >= rg.To {
		hi--
	}
	span = st.epochs[lo:hi]
	if len(span) == 0 {
		return nil, 0, 0, ErrEmpty
	}
	return span, span[0].Epoch, span[len(span)-1].Epoch + 1, nil
}

// Resolve reports the concrete epoch bounds a range would cover right
// now (the canonical [from, to) the cache keys on), without running a
// query.
func (r *Ring) Resolve(rg Range) (from, to uint64, err error) {
	_, from, to, err = r.resolve(rg)
	return from, to, err
}

// merged builds the window sketch for a resolved span: a fresh
// core.Basic of the shared Config absorbing the covered epochs in
// ascending epoch order. Merging into a fresh sketch copies the first
// epoch verbatim and draws every later collision from the fresh
// sketch's own seeded RNG, so the result is a pure function of
// (Config, covered epoch sketches) — the bit-identity the differential
// suite pins.
func (r *Ring) merged(span []*Sealed) (*core.Basic[flowkey.FiveTuple], error) {
	agg := core.NewBasic[flowkey.FiveTuple](r.cfg)
	for _, s := range span {
		if err := agg.Merge(s.Sketch); err != nil {
			return nil, fmt.Errorf("window: merging epoch %d: %w", s.Epoch, err)
		}
	}
	return agg, nil
}

// engineFor returns the window engine for a resolved span, consulting
// the engine cache. Single-epoch windows reuse the epoch's own sealed
// engine (merging one sketch into a fresh one copies it verbatim, so
// the tables are bit-identical).
func (r *Ring) engineFor(span []*Sealed, from, to uint64) (*query.Engine, error) {
	if len(span) == 1 {
		return span[0].Engine, nil
	}
	if eng, ok := r.cache.getEngine(from, to); ok {
		r.tel.cacheHits.Inc()
		return eng, nil
	}
	r.tel.cacheMisses.Inc()
	agg, err := r.merged(span)
	if err != nil {
		return nil, err
	}
	eng := query.NewEngine(agg.Decode())
	r.cache.putEngine(from, to, eng)
	return eng, nil
}

// Window returns a query engine over the merged [from, to) window.
// The engine is immutable; callers may hold it across later seals (it
// keeps answering for the epochs it was built from).
func (r *Ring) Window(rg Range) (*query.Engine, error) {
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return nil, err
	}
	return r.engineFor(span, from, to)
}

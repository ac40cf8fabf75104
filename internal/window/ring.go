// Package window implements the continuous query-serving tier: a
// lock-free ring of sealed measurement epochs that answers
// window-scoped partial-key queries while ingest keeps running.
//
// The ingest side seals one sketch per measurement epoch into a Ring
// (Seal), which keeps only the sketch's occupied buckets as flat
// columns. Readers resolve a [from, to) epoch Range against an
// atomically published snapshot and answer from the covered epochs
// with no lock shared with the sealer. A window's answer is the exact
// sum of its epochs' tables: the paper's partial-key estimate is a
// subset sum over the decoded full-key table (Def. 1), so adding the
// epochs' tables is unbiased, adds no merge variance, and does not
// depend on the order the epochs sealed in.
//
// Each epoch groups its columns under a mask into a view: key-sorted
// partial keys, their sizes and a size-descending order. A mask is in
// use once a query or a subscription names it, until a full ring of
// epochs seals without anything naming it again; at most eight masks
// are in use at once. Views of masks in use are built once and kept on
// the epoch, and a new epoch is grouped at seal for every mask in use,
// so a query pays for what changed, not for the whole window. A view
// of any other mask is built for its query and not kept, so the views
// the ring holds and the grouping a seal does stay bounded whatever
// masks the queries name. Whole-table answers (GroupBy, SQL, Window)
// merge the views' sorted keys; Top with k > 0 runs Fagin's Threshold
// Algorithm over the size orders and stops as soon as no unseen key
// can reach the k-th row. Results are cached per (operation, partial
// key or row limit, window) and invalidated when ring eviction makes a
// window unservable, and standing Subscriptions (heavy hitters, heavy
// changes, entropy collapse) are evaluated at every seal and pushed to
// registered channels. DESIGN.md §16 documents the semantics.
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
	"cocosketch/internal/keysort"
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

// Sealed is one sealed epoch: its full-key table as flat columns, and
// the views kept on it so far. The table never changes after Seal (its
// columns are swapped once, for the full-key view's, which hold the
// same table sorted); a view is built once and then never changes
// either.
type Sealed struct {
	// Epoch is the epoch number the sealer assigned.
	Epoch uint64
	// SealedAt is the ring-clock time the seal began.
	SealedAt time.Time

	// mu guards the fields below. keys and vals hold the sketch's
	// non-empty buckets in bucket order (24 bytes a bucket, no map)
	// until the full-key view is kept, then that view's columns.
	// views holds the views kept or being built to be kept, at most
	// maxMasks of them, one per mask.
	mu    sync.Mutex
	keys  []keysort.Key
	vals  []uint64
	views []*view
}

// maxMasks bounds the masks in use and the views an epoch keeps. A
// query may name any of millions of masks, and each view kept costs 28
// bytes a row in every epoch it covers; past the bound, views are
// built per query instead.
const maxMasks = 8

// newSealed copies the non-empty buckets of a sketch into the columns
// of a sealed epoch.
func newSealed(epoch uint64, at time.Time, buckets []core.Bucket[flowkey.FiveTuple]) *Sealed {
	n := 0
	for i := range buckets {
		if buckets[i].Val != 0 {
			n++
		}
	}
	s := &Sealed{Epoch: epoch, SealedAt: at, keys: make([]keysort.Key, 0, n), vals: make([]uint64, 0, n)}
	for i := range buckets {
		if b := &buckets[i]; b.Val != 0 {
			s.keys = append(s.keys, pack(b.Key))
			s.vals = append(s.vals, b.Val)
		}
	}
	return s
}

// view returns the epoch grouped under m: the view kept on the epoch
// (see kept), or else one built for the caller alone.
func (s *Sealed) view(m flowkey.Mask, keep bool) *view {
	v, keys, vals := s.kept(m, keep)
	if v == nil {
		v = &view{mask: m}
		v.build(keys, vals)
	}
	return v
}

// kept returns the view under m kept on the epoch, if there is one or
// keep admits one: keep admits a view while the epoch keeps fewer than
// maxMasks, and concurrent callers for m share its one build.
// Otherwise it returns nil and the epoch's columns.
func (s *Sealed) kept(m flowkey.Mask, keep bool) (*view, []keysort.Key, []uint64) {
	s.mu.Lock()
	var v *view
	for _, w := range s.views {
		if w.mask == m {
			v = w
			break
		}
	}
	if v == nil && keep && len(s.views) < maxMasks {
		v = &view{mask: m}
		s.views = append(s.views, v)
	}
	keys, vals := s.keys, s.vals
	s.mu.Unlock()
	if v == nil {
		return nil, keys, vals
	}
	v.once.Do(func() {
		v.build(keys, vals)
		if m.IsFull() {
			// Any mask groups the full-key view as it groups the
			// bucket columns, so the view's columns replace them and
			// the epoch holds each full key once.
			s.mu.Lock()
			s.keys, s.vals = v.keys, v.sums
			s.mu.Unlock()
		}
	})
	return v, nil, nil
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

// Ring is a sliding window of sealed epochs with a lock-free read
// side: Seal publishes a new immutable snapshot through an atomic
// pointer, queries resolve against whatever snapshot is current.
// Seal/Subscribe/Unsubscribe serialize on an internal mutex; all query
// methods are safe for any number of concurrent readers.
type Ring struct {
	capacity int
	state    atomic.Pointer[ringState]
	cache    *cache
	now      func() time.Time
	tel      ringTel

	// mu serializes sealers and the subscription registry.
	mu      sync.Mutex
	subs    map[int]*subscriber
	nextSub int

	// useMu guards inUse, which maps each mask in use (at most
	// maxMasks) to the newest sealed epoch when a query or
	// subscription last named it.
	useMu sync.Mutex
	inUse map[flowkey.Mask]uint64
}

// DefaultCacheEntries bounds the result cache when SetCacheLimit is
// not called.
const DefaultCacheEntries = 1024

// NewRing creates a ring retaining the newest capacity sealed epochs.
// Windows are sums of the epochs' tables, so the ring accepts epochs
// of any geometry and does not use the sketch configuration. The
// result cache starts enabled at DefaultCacheEntries.
func NewRing(capacity int, _ core.Config) *Ring {
	if capacity <= 0 {
		panic("window: ring capacity must cover at least one epoch")
	}
	r := &Ring{
		capacity: capacity,
		cache:    newCache(DefaultCacheEntries),
		now:      time.Now,
		subs:     make(map[int]*subscriber),
		inUse:    make(map[flowkey.Mask]uint64),
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

// Seal freezes one epoch into the ring: the occupied buckets of sk
// are copied into the epoch's columns, the epoch is published as the
// newest sealed epoch, and — once the ring exceeds its capacity — the
// oldest epoch is evicted and every cached result whose window reaches
// it is invalidated. After publishing, Seal groups the new epoch under
// every mask in use, then evaluates the standing subscriptions against
// it, before returning.
//
// The ring keeps no reference to sk. Epochs must arrive in strictly
// increasing order; a violation returns ErrOrder without changing the
// ring. Sketches of any geometry may seal into one ring.
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

	sealed := newSealed(epoch, start, sk.Buckets())
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

	// Snapshot the subscribers under mu; grouping and evaluation run
	// outside it so a slow subscription never blocks Unsubscribe.
	var prev *Sealed
	if n := len(st.epochs); n > 0 {
		prev = st.epochs[n-1]
	}
	subs := make([]*subscriber, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
		r.name(s.sub.Mask)
	}
	r.mu.Unlock()

	for _, m := range r.masksInUse(next.epochs[0].Epoch) {
		sealed.view(m, true)
	}
	r.notify(subs, sealed, prev)
	return nil
}

// name records that a query or subscription named m and reports
// whether m is in use: it is from now on, until a full ring of epochs
// seals without anything naming it again, unless maxMasks other masks
// are in use already.
func (r *Ring) name(m flowkey.Mask) bool {
	st := r.state.Load()
	if len(st.epochs) == 0 {
		return false
	}
	newest := st.epochs[len(st.epochs)-1].Epoch
	r.useMu.Lock()
	defer r.useMu.Unlock()
	e, ok := r.inUse[m]
	if !ok && len(r.inUse) >= maxMasks {
		r.dropUnused(st.epochs[0].Epoch)
		if len(r.inUse) >= maxMasks {
			return false
		}
	}
	if !ok || newest > e {
		r.inUse[m] = newest
	}
	return true
}

// dropUnused drops every mask nothing has named since epoch oldest
// sealed. The caller holds useMu.
func (r *Ring) dropUnused(oldest uint64) {
	for m, newest := range r.inUse {
		if newest < oldest {
			delete(r.inUse, m)
		}
	}
}

// masksInUse drops every mask nothing has named since epoch oldest
// sealed and returns the masks left.
func (r *Ring) masksInUse(oldest uint64) []flowkey.Mask {
	r.useMu.Lock()
	defer r.useMu.Unlock()
	r.dropUnused(oldest)
	out := make([]flowkey.Mask, 0, len(r.inUse))
	for m := range r.inUse {
		out = append(out, m)
	}
	return out
}

// views returns the span's epochs grouped under m, kept on each epoch
// if keep is set and it has room (see Sealed.view).
func views(span []*Sealed, m flowkey.Mask, keep bool) []*view {
	vs := make([]*view, len(span))
	for i, s := range span {
		vs[i] = s.view(m, keep)
	}
	return vs
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

package window

import (
	"slices"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/sketch"
)

// Window-scoped partial-key queries: each method resolves the range to
// its canonical [from, to) bounds, records the mask as in use, and
// serves the answer through the result cache keyed by (operation,
// partial key or row limit, window); a miss sums the covered epochs'
// views. Mutable results (maps, row slices) are returned as copies so
// callers can never corrupt a cached value. All methods are safe for
// concurrent use and never block Seal.

// Window returns a query engine over the window's full-key table: the
// sum of the covered epochs' tables, built at every call. The engine
// is immutable; callers may hold it across later seals.
func (r *Ring) Window(rg Range) (*query.Engine, error) {
	r.tel.queries.Inc()
	span, _, _, err := r.resolve(rg)
	if err != nil {
		return nil, err
	}
	all := flowkey.MaskAll()
	return query.NewEngine(table(sumViews(views(span, all, r.name(all))))), nil
}

// Query returns the estimated size of one partial-key flow over the
// window: the sum over the covered epochs of the subset sum of their
// full-key estimates mapping to m.Apply(partial), one binary search
// per epoch.
func (r *Ring) Query(rg Range, m flowkey.Mask, partial flowkey.FiveTuple) (uint64, error) {
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return 0, err
	}
	keep := r.name(m)
	key := cacheKey{op: opQuery, from: from, to: to, mask: m, partial: m.Apply(partial)}
	if v, ok := r.cache.get(key); ok {
		r.tel.cacheHits.Inc()
		return v.(uint64), nil
	}
	r.tel.cacheMisses.Inc()
	want := pack(partial).And(maskBits(m))
	var sum uint64
	for _, s := range span {
		v := s.view(m, keep)
		if g, ok := v.find(want); ok {
			sum += v.sums[g]
		}
	}
	r.cache.put(key, sum)
	return sum, nil
}

// GroupBy answers the paper's SQL statement for one mask over the
// window: SELECT g(k), SUM(Size) GROUP BY g(k), summed over the
// covered epochs. The returned map is the caller's to mutate.
func (r *Ring) GroupBy(rg Range, m flowkey.Mask) (map[flowkey.FiveTuple]uint64, error) {
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return nil, err
	}
	keep := r.name(m)
	key := cacheKey{op: opGroup, from: from, to: to, mask: m}
	if v, ok := r.cache.get(key); ok {
		r.tel.cacheHits.Inc()
		return copyTable(v.(map[flowkey.FiveTuple]uint64)), nil
	}
	r.tel.cacheMisses.Inc()
	t := table(sumViews(views(span, m, keep)))
	r.cache.put(key, t)
	return copyTable(t), nil
}

// Top returns the k largest partial-key flows under a mask over the
// window (all of them when k <= 0), in sketch.Entries order: size
// descending, then the total tie-break every other top-k shares. For
// k > 0 the rows come from the Threshold Algorithm over the epochs'
// size-ordered views and are cached per (window, mask, k), so a cache
// hit costs O(k); for k <= 0 the full sorted row set is cached. The
// returned slice is the caller's to mutate.
func (r *Ring) Top(rg Range, m flowkey.Mask, k int) ([]sketch.Entry[flowkey.FiveTuple], error) {
	k = max(k, 0)
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return nil, err
	}
	keep := r.name(m)
	key := cacheKey{op: opRows, from: from, to: to, mask: m, k: k}
	if v, ok := r.cache.get(key); ok {
		r.tel.cacheHits.Inc()
		return slices.Clone(v.([]sketch.Entry[flowkey.FiveTuple])), nil
	}
	r.tel.cacheMisses.Inc()
	var rows []sketch.Entry[flowkey.FiveTuple]
	if k > 0 {
		rows = topSum(views(span, m, keep), k)
	} else {
		rows = sketch.Entries(table(sumViews(views(span, m, keep))))
	}
	r.cache.put(key, rows)
	return slices.Clone(rows), nil
}

// SQL parses and executes the restricted SQL dialect of §4.3 over the
// window; rows come back sorted by size descending. The returned slice
// is the caller's to mutate.
func (r *Ring) SQL(stmt string, rg Range) ([]sketch.Entry[flowkey.FiveTuple], error) {
	m, err := query.ParseSQL(stmt)
	if err != nil {
		return nil, err
	}
	return r.Top(rg, m, 0)
}

// copyTable returns a fresh map with the same contents.
func copyTable(t map[flowkey.FiveTuple]uint64) map[flowkey.FiveTuple]uint64 {
	out := make(map[flowkey.FiveTuple]uint64, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

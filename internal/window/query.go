package window

import (
	"slices"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/sketch"
)

// Window-scoped partial-key queries: each method resolves the range to
// its canonical [from, to) bounds, obtains the merged window engine
// (cached per window), and serves the answer through the result cache
// keyed by (operation, partial key or row limit, window). Mutable
// results (maps, row slices) are returned as copies so callers can
// never corrupt a cached value. All methods are safe for concurrent
// use and never block Seal.

// Query returns the estimated size of one partial-key flow over the
// window: the subset sum of the merged full-key estimates mapping to
// m.Apply(partial).
func (r *Ring) Query(rg Range, m flowkey.Mask, partial flowkey.FiveTuple) (uint64, error) {
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return 0, err
	}
	key := cacheKey{op: opQuery, from: from, to: to, mask: m, partial: m.Apply(partial)}
	if v, ok := r.cache.get(key); ok {
		r.tel.cacheHits.Inc()
		return v.(uint64), nil
	}
	r.tel.cacheMisses.Inc()
	eng, err := r.engineFor(span, from, to)
	if err != nil {
		return 0, err
	}
	v := eng.Query(m, partial)
	r.cache.put(key, v)
	return v, nil
}

// GroupBy answers the paper's SQL statement for one mask over the
// window: SELECT g(k), SUM(Size) GROUP BY g(k). The returned map is
// the caller's to mutate.
func (r *Ring) GroupBy(rg Range, m flowkey.Mask) (map[flowkey.FiveTuple]uint64, error) {
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return nil, err
	}
	key := cacheKey{op: opGroup, from: from, to: to, mask: m}
	if v, ok := r.cache.get(key); ok {
		r.tel.cacheHits.Inc()
		return copyTable(v.(map[flowkey.FiveTuple]uint64)), nil
	}
	r.tel.cacheMisses.Inc()
	eng, err := r.engineFor(span, from, to)
	if err != nil {
		return nil, err
	}
	table := eng.GroupBy(m)
	r.cache.put(key, table)
	return copyTable(table), nil
}

// Top returns the k largest partial-key flows under a mask over the
// window (all of them when k <= 0), in sketch.Entries order: size
// descending, then the total tie-break every other top-k shares. For
// k > 0 the rows come from bounded selection (sketch.TopK) and are
// cached per (window, mask, k), so a cache hit costs O(k); for k <= 0
// the full sorted row set is cached. The returned slice is the
// caller's to mutate.
func (r *Ring) Top(rg Range, m flowkey.Mask, k int) ([]sketch.Entry[flowkey.FiveTuple], error) {
	k = max(k, 0)
	r.tel.queries.Inc()
	span, from, to, err := r.resolve(rg)
	if err != nil {
		return nil, err
	}
	key := cacheKey{op: opRows, from: from, to: to, mask: m, k: k}
	if v, ok := r.cache.get(key); ok {
		r.tel.cacheHits.Inc()
		return slices.Clone(v.([]sketch.Entry[flowkey.FiveTuple])), nil
	}
	r.tel.cacheMisses.Inc()
	eng, err := r.engineFor(span, from, to)
	if err != nil {
		return nil, err
	}
	var rows []sketch.Entry[flowkey.FiveTuple]
	if k > 0 {
		rows = sketch.TopK(eng.GroupBy(m), k)
	} else {
		rows = sketch.Entries(eng.GroupBy(m))
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

package window

import "cocosketch/internal/flowkey"

// SealedColumns returns a sealed epoch's full-key columns.
func SealedColumns(s *Sealed) ([]flowkey.FiveTuple, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]flowkey.FiveTuple, len(s.keys))
	for i, k := range s.keys {
		keys[i] = unpack(k)
	}
	return keys, s.vals
}

// ViewBuilt reports whether the epoch holds a view under m.
func ViewBuilt(s *Sealed, m flowkey.Mask) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.views {
		if v.mask == m {
			return true
		}
	}
	return false
}

// SealedView returns the epoch's view under m (building it on first
// use) as unpacked keys, the view's own sizes and size order, and
// whether the view was built before the call.
func SealedView(s *Sealed, m flowkey.Mask) (keys []flowkey.FiveTuple, sums []uint64, order []uint32, built bool) {
	built = ViewBuilt(s, m)
	v := s.view(m, true)
	keys = make([]flowkey.FiveTuple, len(v.keys))
	for i, k := range v.keys {
		keys[i] = unpack(k)
	}
	return keys, v.sums, v.order, built
}

// MaxMasks is the bound on masks in use and on the views an epoch
// keeps.
const MaxMasks = maxMasks

// ViewCount returns the number of views the epoch keeps.
func ViewCount(s *Sealed) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.views)
}

// MasksInUse returns the number of masks the ring holds in use.
func MasksInUse(r *Ring) int {
	r.useMu.Lock()
	defer r.useMu.Unlock()
	return len(r.inUse)
}

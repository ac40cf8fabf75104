package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: a name, its interval in
// nanoseconds since the recorder's origin, the index of the span that
// caused it (-1 for a root) and the id shared by every span of one
// epoch or request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// recorder keeps spans in memory for the length of a run. A nil
// recorder records nothing, so the untraced run passes nil and pays
// one nil check per call.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its handle for end and for children's
// parent field; -1 on a nil recorder.
func (r *recorder) start(name string, parent int, id int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(r.spans) - 1
}

// end closes the span opened with handle h.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// reset drops every span recorded so far (set-up's spans, before the
// measured phase starts).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns the self time of every closed span named name: its
// duration minus the part of its interval covered by its children.
// Children may nest or overlap each other (an agent's flush and the
// collector's decode run concurrently under one epoch span); the
// covered part is the union of the children's intervals clipped to
// the parent's, so overlap is never subtracted twice.
func selfTimes(spans []span, name string) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		out = append(out, time.Duration(s.End-s.Start-covered(s, children[i])))
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// durations converts durations to float64 counts of unit.
func durations(ts []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = float64(t) / float64(unit)
	}
	return out
}

// spanFile is the JSON document written at exit: the spans of the
// measured run and those of the stage ledger, each list indexed by
// its own parent fields.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Run      []span `json:"run"`
	Ledger   []span `json:"ledger"`
}

func writeSpans(w io.Writer, f spanFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

package core

import "cocosketch/internal/telemetry"

// Telemetry wiring. The hot path never touches an atomic: insertAt
// increments plain single-writer fields of opCounts (one predictable
// store per packet, identical whether telemetry is on or off), and the
// deltas since the last flush are pushed into the shared atomic
// counters once per Insert/InsertBatch/Merge call. With telemetry off
// (nil SketchMetrics) the flush is a nil-check and nothing else, so
// the instrumented path is benchmark-equivalent to the uninstrumented
// one (see BenchmarkInsertBatch and the bench-smoke CI gate).

// opCounts accumulates update outcomes with plain fields. Sketches are
// single-goroutine (see the package comment), so these are written
// without atomics; cross-goroutine visibility happens only through the
// flushed telemetry counters.
type opCounts struct {
	matched  uint64
	replaced uint64
	kept     uint64
	merges   uint64
}

// setTelemetry installs the counter group and resets the flush base so
// pre-existing local counts are reported exactly once.
func (t *table[K]) setTelemetry(m *telemetry.SketchMetrics) {
	t.tel = m
	t.telBase = opCounts{}
	t.flushTel()
}

// flushTel pushes the outcome counts accumulated since the last flush
// into the shared atomic counters. Called at the end of every mutating
// operation; no-op (one branch) when telemetry is off.
func (t *table[K]) flushTel() {
	m := t.tel
	if m == nil {
		return
	}
	if d := t.ops.matched - t.telBase.matched; d != 0 {
		m.Matched.Add(d)
	}
	if d := t.ops.replaced - t.telBase.replaced; d != 0 {
		m.Replaced.Add(d)
	}
	if d := t.ops.kept - t.telBase.kept; d != 0 {
		m.Kept.Add(d)
	}
	if d := t.ops.merges - t.telBase.merges; d != 0 {
		m.Merges.Add(d)
	}
	t.telBase = t.ops
}

// SetTelemetry installs (or, with nil, removes) the telemetry counter
// group the sketch flushes its update outcomes into. Counts
// accumulated before the call are flushed immediately. Several
// sketches may share one group; their deltas add up. Returns the
// sketch for chaining.
func (s *Basic[K]) SetTelemetry(m *telemetry.SketchMetrics) *Basic[K] {
	s.setTelemetry(m)
	return s
}

// SetTelemetry installs the telemetry counter group; see
// Basic.SetTelemetry.
func (s *Hardware[K]) SetTelemetry(m *telemetry.SketchMetrics) *Hardware[K] {
	s.setTelemetry(m)
	return s
}

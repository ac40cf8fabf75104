package core

import (
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// telCfg is a small geometry that forces plenty of evictions.
func telCfg() Config { return Config{Arrays: 2, BucketsPerArray: 64, Seed: 9} }

// TestBasicTelemetryAccounting checks the flushed outcome counters
// partition the insert stream exactly: matched+replaced+kept equals
// the number of non-zero-weight inserts, on both the single and batch
// paths, and the batch path reports the same totals as the sequential
// one (it is bit-identical).
func TestBasicTelemetryAccounting(t *testing.T) {
	tr := trace.CAIDALike(20_000, 5)
	keys := make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		keys[i] = tr.Packets[i].Key
	}

	reg := telemetry.New()
	seq := NewBasic[flowkey.FiveTuple](telCfg()).SetTelemetry(telemetry.NewSketchMetrics(reg, "seq"))
	for _, k := range keys {
		seq.Insert(k, 1)
	}
	regB := telemetry.New()
	bat := NewBasic[flowkey.FiveTuple](telCfg()).SetTelemetry(telemetry.NewSketchMetrics(regB, "bat"))
	bat.InsertBatchUnit(keys)

	for _, tc := range []struct {
		name string
		snap telemetry.Snapshot
		pfx  string
	}{
		{"sequential", reg.Snapshot(), "seq"},
		{"batch", regB.Snapshot(), "bat"},
	} {
		total := tc.snap.Counters[tc.pfx+".matched"] +
			tc.snap.Counters[tc.pfx+".replaced"] +
			tc.snap.Counters[tc.pfx+".kept"]
		if total != uint64(len(keys)) {
			t.Errorf("%s: outcomes sum to %d, want %d inserts", tc.name, total, len(keys))
		}
		if tc.snap.Counters[tc.pfx+".replaced"] == 0 {
			t.Errorf("%s: no replacements on an over-subscribed sketch", tc.name)
		}
	}

	s1, s2 := reg.Snapshot(), regB.Snapshot()
	for _, k := range []string{"matched", "replaced", "kept"} {
		if s1.Counters["seq."+k] != s2.Counters["bat."+k] {
			t.Errorf("batch path diverges on %s: %d vs %d",
				k, s1.Counters["seq."+k], s2.Counters["bat."+k])
		}
	}
}

// TestHardwareTelemetryAccounting checks the per-array outcome
// partition: d outcomes per insert.
func TestHardwareTelemetryAccounting(t *testing.T) {
	tr := trace.CAIDALike(10_000, 6)
	reg := telemetry.New()
	s := NewHardware[flowkey.FiveTuple](telCfg()).SetTelemetry(telemetry.NewSketchMetrics(reg, "hw"))
	for i := range tr.Packets {
		s.Insert(tr.Packets[i].Key, 1)
	}
	snap := reg.Snapshot()
	total := snap.Counters["hw.matched"] + snap.Counters["hw.replaced"] + snap.Counters["hw.kept"]
	want := uint64(len(tr.Packets)) * uint64(telCfg().Arrays)
	if total != want {
		t.Fatalf("outcomes sum to %d, want %d (d outcomes per insert)", total, want)
	}
}

// TestTelemetryMergeAndLateInstall checks Merge counting and that
// installing telemetry after the fact flushes accumulated counts
// exactly once.
func TestTelemetryMergeAndLateInstall(t *testing.T) {
	tr := trace.CAIDALike(5_000, 7)
	s := NewBasic[flowkey.FiveTuple](telCfg())
	for i := range tr.Packets {
		s.Insert(tr.Packets[i].Key, 1)
	}

	reg := telemetry.New()
	s.SetTelemetry(telemetry.NewSketchMetrics(reg, "core"))
	snap := reg.Snapshot()
	total := snap.Counters["core.matched"] + snap.Counters["core.replaced"] + snap.Counters["core.kept"]
	if total != uint64(len(tr.Packets)) {
		t.Fatalf("late install flushed %d outcomes, want %d", total, len(tr.Packets))
	}

	other := NewBasic[flowkey.FiveTuple](telCfg())
	other.Insert(tr.Packets[0].Key, 3)
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core.merges").Value(); got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}
	// Re-installing must not double-flush.
	s.SetTelemetry(telemetry.NewSketchMetrics(reg, "core"))
	snap = reg.Snapshot()
	if got := snap.Counters["core.matched"] + snap.Counters["core.replaced"] + snap.Counters["core.kept"]; got != 2*total {
		t.Fatalf("re-install flushed to %d, want %d (one extra copy of the history)", got, 2*total)
	}
}

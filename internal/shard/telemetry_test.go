package shard

import (
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// telSketchCfg is a small shared geometry for the telemetry tests.
func telSketchCfg() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 11}
}

// TestReplayTelemetryCountersMatchStats checks the live telemetry
// counters of a multi-queue in-memory replay agree with its returned
// stats, and that the burst-size histogram saw every packet.
func TestReplayTelemetryCountersMatchStats(t *testing.T) {
	tr := trace.CAIDALike(50_000, 3)
	reg := telemetry.New()
	_, st, err := ReplayPackets(ReplayConfig{Queues: 4, Seed: 3, Telemetry: reg},
		NewBasicFactory(telSketchCfg(), reg), tr.Packets)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if st.Packets != uint64(len(tr.Packets)) {
		t.Errorf("stats count %d packets, want %d", st.Packets, len(tr.Packets))
	}
	if got := snap.Counters["ingest.consumed"]; got != st.Packets {
		t.Errorf("ingest.consumed = %d, stats say %d", got, st.Packets)
	}
	h := snap.Histograms["ingest.batch_size"]
	if h.Sum != uint64(len(tr.Packets)) {
		t.Errorf("batch-size histogram sum = %d, want %d (every packet in some burst)",
			h.Sum, len(tr.Packets))
	}
	if h.Count() == 0 || h.Quantile(0.5) == 0 {
		t.Errorf("batch-size histogram empty: count=%d p50=%d", h.Count(), h.Quantile(0.5))
	}
	// The queue sketches share a "core." counter group: outcomes must
	// partition the inserted packets exactly.
	outcomes := snap.Counters["core.matched"] + snap.Counters["core.replaced"] + snap.Counters["core.kept"]
	if outcomes != st.Packets {
		t.Errorf("sketch outcomes sum to %d, want %d inserted", outcomes, st.Packets)
	}
	if snap.Counters["core.merges"] == 0 {
		t.Error("core.merges = 0 after a four-queue replay")
	}
}

// TestReplayTelemetryDisabledIsOff pins the disabled form: a nil
// ReplayConfig.Telemetry must register nothing anywhere.
func TestReplayTelemetryDisabledIsOff(t *testing.T) {
	tr := trace.CAIDALike(10_000, 9)
	if _, _, err := ReplayPackets(ReplayConfig{Queues: 2, Seed: 9},
		NewBasicFactory(telSketchCfg(), nil), tr.Packets); err != nil {
		t.Fatal(err)
	}
	snap := telemetry.Disabled.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("disabled registry accumulated metrics")
	}
}

package oracle

import (
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
)

// telemetryMetrics builds a live counter group on a fresh registry.
func telemetryMetrics() *telemetry.SketchMetrics {
	return telemetry.NewSketchMetrics(telemetry.New(), "core")
}

// TestMetamorphicTelemetryInvisible pins the tentpole property of the
// instrumentation layer: enabling telemetry must not perturb sketch
// state. A sketch with live counters installed and a sketch with the
// Disabled (nil) form must decode bit-identically on every regime, for
// both variants and both insert paths — telemetry only observes
// outcomes, it never consumes randomness or reorders work.
func TestMetamorphicTelemetryInvisible(t *testing.T) {
	for _, reg := range Regimes() {
		tr := reg.Generate(6000, 0x7E1E)
		keys := make([]flowkey.FiveTuple, len(tr.Packets))
		ws := make([]uint64, len(tr.Packets))
		for i := range tr.Packets {
			keys[i] = tr.Packets[i].Key
			ws[i] = uint64(tr.Packets[i].Size)
		}

		// Basic, sequential path.
		off := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(1))
		on := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(1)).SetTelemetry(telemetryMetrics())
		for i := range keys {
			off.Insert(keys[i], ws[i])
			on.Insert(keys[i], ws[i])
		}
		assertSameTable(t, reg.Name+"/basic-insert", off.Decode(), on.Decode())

		// Basic, batch path.
		offB := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(1))
		onB := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(1)).SetTelemetry(telemetryMetrics())
		offB.InsertBatch(keys, ws)
		onB.InsertBatch(keys, ws)
		assertSameTable(t, reg.Name+"/basic-batch", offB.Decode(), onB.Decode())

		// Hardware, both paths.
		offH := core.NewHardware[flowkey.FiveTuple](harnessCoreCfg(2))
		onH := core.NewHardware[flowkey.FiveTuple](harnessCoreCfg(2)).SetTelemetry(telemetryMetrics())
		for i := range keys {
			offH.Insert(keys[i], ws[i])
			onH.Insert(keys[i], ws[i])
		}
		assertSameTable(t, reg.Name+"/hardware-insert", offH.Decode(), onH.Decode())

		offHB := core.NewHardware[flowkey.FiveTuple](harnessCoreCfg(2))
		onHB := core.NewHardware[flowkey.FiveTuple](harnessCoreCfg(2)).SetTelemetry(telemetryMetrics())
		offHB.InsertBatch(keys, ws)
		onHB.InsertBatch(keys, ws)
		assertSameTable(t, reg.Name+"/hardware-batch", offHB.Decode(), onHB.Decode())
	}
}

// TestMetamorphicTelemetryInvisibleSharded extends the invariant to the
// multi-core pipeline: a fully instrumented replay (registry through
// shard.ReplayConfig and the sketch factory) must decode
// bit-identically to an un-instrumented one with the same seeds, for
// one queue and several.
func TestMetamorphicTelemetryInvisibleSharded(t *testing.T) {
	for _, reg := range Regimes() {
		tr := reg.Generate(6000, 0x7E2E)
		for _, workers := range []int{1, 4} {
			off, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: workers, Seed: 5},
				shard.NewBasicFactory(harnessCoreCfg(5), nil), tr.Packets)
			if err != nil {
				t.Fatalf("%s/%d: replay: %v", reg.Name, workers, err)
			}

			tel := telemetry.New()
			on, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: workers, Seed: 5, Telemetry: tel},
				shard.NewBasicFactory(harnessCoreCfg(5), tel), tr.Packets)
			if err != nil {
				t.Fatalf("%s/%d: instrumented replay: %v", reg.Name, workers, err)
			}
			assertSameTable(t, reg.Name+"/sharded", off.Decode(), on.Decode())
		}
	}
}

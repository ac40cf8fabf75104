package cocosketch

import (
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// BenchmarkInsertCoco isolates the CocoSketch update cost for both
// variants (the quantity behind Figure 14's "Ours" series), one packet
// per iteration.
func BenchmarkInsertCoco(b *testing.B) {
	tr := trace.CAIDALike(1<<17, 3)
	mask := len(tr.Packets) - 1
	b.Run("basic", func(b *testing.B) {
		s := core.NewBasicForMemory[flowkey.FiveTuple](2, 500*1024, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Insert(tr.Packets[i&mask].Key, 1)
		}
	})
	b.Run("hardware", func(b *testing.B) {
		s := core.NewHardwareForMemory[flowkey.FiveTuple](2, 500*1024, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Insert(tr.Packets[i&mask].Key, 1)
		}
	})
}

// BenchmarkInsertCocoBatch measures the batched insert path (ns/op is
// still per packet). Compare against BenchmarkInsertCoco for the
// batching speedup. The 500 KB arms fit in L2; the 16 MB arm takes a
// MAWI-like trace with 100k flows into a sketch several times L2, so
// its cost is bucket cache misses (cocoperf's ingest-mawi-16mb shape).
func BenchmarkInsertCocoBatch(b *testing.B) {
	const batch = 256
	keysOf := func(tr *trace.Trace) []flowkey.FiveTuple {
		keys := make([]flowkey.FiveTuple, len(tr.Packets))
		for i := range tr.Packets {
			keys[i] = tr.Packets[i].Key
		}
		return keys
	}
	run := func(b *testing.B, keys []flowkey.FiveTuple, insert func([]flowkey.FiveTuple)) {
		b.ResetTimer()
		done := 0
		for done < b.N {
			off := done % len(keys)
			n := batch
			if n > b.N-done {
				n = b.N - done
			}
			if n > len(keys)-off {
				n = len(keys) - off
			}
			insert(keys[off : off+n])
			done += n
		}
	}
	caida, mawi := keysOf(trace.CAIDALike(1<<17, 3)), keysOf(trace.MAWILike(1<<20, 3))
	b.Run("basic", func(b *testing.B) {
		s := core.NewBasicForMemory[flowkey.FiveTuple](2, 500*1024, 7)
		run(b, caida, s.InsertBatchUnit)
	})
	b.Run("hardware", func(b *testing.B) {
		s := core.NewHardwareForMemory[flowkey.FiveTuple](2, 500*1024, 7)
		run(b, caida, s.InsertBatchUnit)
	})
	b.Run("basic-16mb", func(b *testing.B) {
		s := core.NewBasicForMemory[flowkey.FiveTuple](2, 16<<20, 7)
		run(b, mawi, s.InsertBatchUnit)
	})
}

// BenchmarkInsertBatch compares the batched hot path with telemetry
// disabled (the nil no-op form) and enabled (a live registry). The
// overhead budget is <2% — the CI bench-smoke job gates the ratio; see
// internal/tools/benchsmoke.
func BenchmarkInsertBatch(b *testing.B) {
	tr := trace.CAIDALike(1<<17, 3)
	const batch = 256
	keys := make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		keys[i] = tr.Packets[i].Key
	}
	run := func(b *testing.B, s *core.Basic[flowkey.FiveTuple]) {
		b.ResetTimer()
		done := 0
		for done < b.N {
			off := done % len(keys)
			n := batch
			if n > b.N-done {
				n = b.N - done
			}
			if n > len(keys)-off {
				n = len(keys) - off
			}
			s.InsertBatchUnit(keys[off : off+n])
			done += n
		}
	}
	b.Run("telemetry-off", func(b *testing.B) {
		s := core.NewBasicForMemory[flowkey.FiveTuple](2, 500*1024, 7)
		s.SetTelemetry(telemetry.NewSketchMetrics(telemetry.Disabled, "core"))
		run(b, s)
	})
	b.Run("telemetry-on", func(b *testing.B) {
		s := core.NewBasicForMemory[flowkey.FiveTuple](2, 500*1024, 7)
		s.SetTelemetry(telemetry.NewSketchMetrics(telemetry.New(), "core"))
		run(b, s)
	})
}

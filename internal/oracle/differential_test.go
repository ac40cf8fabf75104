package oracle

import (
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

// matrixConfig is the shared scale of the differential matrix: ~20k
// packets makes the top zipf flows a few percent of V, and the trial
// count tightens the heavy-hitter CIs to ≈10–15% of truth — enough
// power to catch the off-by-one negative control while honest
// implementations pass deterministically at z = DefaultZ.
func matrixConfig(t *testing.T) MatrixConfig {
	cfg := MatrixConfig{Packets: 20000, Trials: 20, Seed: 0xC0C0}
	if testing.Short() {
		cfg.Packets, cfg.Trials = 8000, 8
	}
	return cfg
}

// TestDifferentialMatrix is the headline check: every implementation in
// the repository — both CocoSketch variants, the batched and sharded
// paths, and all seven baselines — against the exact oracle over every
// regime, asserting each one's published contract. See impls.go for
// which theorem each contract encodes.
func TestDifferentialMatrix(t *testing.T) {
	vs := RunMatrix(AllImpls(), Regimes(), matrixConfig(t))
	for _, v := range vs {
		t.Errorf("%s", v)
	}
}

// TestInjectedBiasDetected proves the matrix has statistical power: a
// CocoSketch whose replacement probability is off by one (doubled for
// unit weights) must produce unbiasedness violations under the honest
// contract, while the honest sketch passes the identical cell. Without
// this, a vacuously wide CI would pass everything.
//
// The off-by-one is a subtle bug: in a well-mixed stream, doubling the
// capture probability also doubles the eviction rate and the two
// effects cancel to first order, so per-flow estimates stay within the
// CI. The effect survives only for flows with no later traffic to
// rebalance them, which is exactly what LateArrivalRegime constructs —
// and the per-flow residue is then surfaced by the partial-key
// subset-sum over the swarm's shared source. The harness catching this
// bug is therefore a test of the whole pipeline: arrival-order regime,
// mask aggregation, and Theorem 2 CI, working together.
func TestInjectedBiasDetected(t *testing.T) {
	cfg := matrixConfig(t)
	cfg.Trials = 30 // the negative-control margin wants a tighter CI
	if testing.Short() {
		t.Skip("negative control needs the full trial count for its CI margin")
	}
	vs := RunMatrix([]Impl{BiasedImpl(), CocoBasicImpl()}, []Regime{LateArrivalRegime()}, cfg)
	var unbiasedness int
	for _, v := range vs {
		if !strings.Contains(v.Impl, "negative-control") {
			t.Errorf("honest sketch failed the negative-control cell: %s", v)
			continue
		}
		if strings.Contains(v.Detail, "unbiasedness") {
			unbiasedness++
		}
	}
	if unbiasedness == 0 {
		t.Fatalf("off-by-one replacement probability produced no unbiasedness violations: the harness cannot detect an injected bias")
	}
	t.Logf("negative control caught: %d unbiasedness violations", unbiasedness)
}

func harnessCoreCfg(seed uint64) core.Config {
	return core.Config{Arrays: harnessArrays, BucketsPerArray: harnessBuckets, Seed: seed}
}

// TestMetamorphicBatchEqualsSequential pins InsertBatch ≡ Insert loop:
// decode tables must be bit-identical for both variants on every
// regime (the batch path only reorders pure hashing work).
func TestMetamorphicBatchEqualsSequential(t *testing.T) {
	for _, reg := range Regimes() {
		tr := reg.Generate(6000, 0xBA7C)
		keys := make([]flowkey.FiveTuple, len(tr.Packets))
		ws := make([]uint64, len(tr.Packets))
		for i := range tr.Packets {
			keys[i] = tr.Packets[i].Key
			ws[i] = uint64(tr.Packets[i].Size)
		}

		seq := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(1))
		bat := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(1))
		for i := range keys {
			seq.Insert(keys[i], ws[i])
		}
		bat.InsertBatch(keys, ws)
		assertSameTable(t, reg.Name+"/basic", seq.Decode(), bat.Decode())

		seqH := core.NewHardware[flowkey.FiveTuple](harnessCoreCfg(2))
		batH := core.NewHardware[flowkey.FiveTuple](harnessCoreCfg(2))
		for i := range keys {
			seqH.Insert(keys[i], ws[i])
		}
		batH.InsertBatch(keys, ws)
		assertSameTable(t, reg.Name+"/hardware", seqH.Decode(), batH.Decode())
	}
}

// TestMetamorphicShardOneEqualsSequential pins shard-1 ≡ sequential:
// one worker, same sketch config, identical decode.
func TestMetamorphicShardOneEqualsSequential(t *testing.T) {
	for _, reg := range Regimes() {
		tr := reg.Generate(6000, 0x5A4D)
		seq := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(3))
		for i := range tr.Packets {
			seq.Insert(tr.Packets[i].Key, 1)
		}
		got, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: 1, Seed: 3},
			shard.NewBasicFactory(harnessCoreCfg(3), nil), tr.Packets)
		if err != nil {
			t.Fatalf("%s: replay: %v", reg.Name, err)
		}
		assertSameTable(t, reg.Name, seq.Decode(), got.Decode())
	}
}

// TestMetamorphicShardNDecode pins the shard-N ≡ shard-1 relation at
// the level the pipeline guarantees: the merged decode conserves the
// exact stream mass for every worker count, for every partial key
// (merging is mass-preserving), and the per-key estimates of the
// merged table stay unbiased — the statistical half is asserted by the
// coco-sharded row of TestDifferentialMatrix.
func TestMetamorphicShardNDecode(t *testing.T) {
	for _, reg := range Regimes() {
		tr := reg.Generate(6000, 0x0D0D)
		o := FromTrace(tr)
		for _, workers := range []int{1, 2, 4} {
			merged, _, err := shard.ReplayPackets(shard.ReplayConfig{Queues: workers, Seed: 9},
				shard.NewBasicFactory(harnessCoreCfg(9), nil), tr.Packets)
			if err != nil {
				t.Fatalf("%s/%d: replay: %v", reg.Name, workers, err)
			}
			table := merged.Decode()
			for _, m := range Masks() {
				var mass uint64
				for k, v := range table {
					_ = m.Apply(k)
					mass += v
				}
				if mass != o.Total() {
					t.Fatalf("%s/%d workers: mask %v decode mass %d ≠ exact %d", reg.Name, workers, m, mass, o.Total())
				}
			}
		}
	}
}

// TestMetamorphicSerializeRoundTrip pins serialize→deserialize ≡
// identity in the strongest sense: a sketch restored mid-stream must
// not only decode identically but *behave* identically on the rest of
// the stream (bucket state and RNG state both survive).
func TestMetamorphicSerializeRoundTrip(t *testing.T) {
	for _, reg := range Regimes() {
		tr := reg.Generate(6000, 0x5E1A)
		half := len(tr.Packets) / 2

		orig := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(4))
		for i := 0; i < half; i++ {
			orig.Insert(tr.Packets[i].Key, 1)
		}
		blob, err := orig.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", reg.Name, err)
		}
		restored, err := core.UnmarshalBasic(blob, flowkey.FiveTupleFromBytes)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", reg.Name, err)
		}
		assertSameTable(t, reg.Name+"/at-checkpoint", orig.Decode(), restored.Decode())

		for i := half; i < len(tr.Packets); i++ {
			orig.Insert(tr.Packets[i].Key, 1)
			restored.Insert(tr.Packets[i].Key, 1)
		}
		assertSameTable(t, reg.Name+"/after-resume", orig.Decode(), restored.Decode())
	}
}

// TestMetamorphicMergeUnbiased pins Merge(a,b) ≡ Insert(a∥b) at the
// level Theorem 2 guarantees: merging two sketches of the two halves
// of a stream yields unbiased estimates of the whole stream, with
// variance bounded by twice the single-sketch subset bound (each half
// contributes its own collapse noise and the merge adds at most one
// more collapse round).
func TestMetamorphicMergeUnbiased(t *testing.T) {
	cfg := matrixConfig(t)
	tr := trace.CAIDALike(cfg.Packets, 0x3E6E)
	o := FromTrace(tr)
	o.Precompute(Masks())
	half := len(tr.Packets) / 2

	tracked := make(map[flowkey.Mask][]flowkey.FiveTuple)
	moments := make(map[flowkey.Mask][]*Moments)
	for _, m := range Masks() {
		tracked[m] = o.TrackedKeys(m, 4)
		ms := make([]*Moments, len(tracked[m]))
		for i := range ms {
			ms[i] = &Moments{}
		}
		moments[m] = ms
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		seed := uint64(trial)*0x9E37 + 5
		// Merge requires equal hash seeds (same Config); Reseed
		// decorrelates the replacement draws of the second half.
		a := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(seed))
		b := core.NewBasic[flowkey.FiveTuple](harnessCoreCfg(seed))
		b.Reseed(seed ^ 0xB0B0)
		for i := 0; i < half; i++ {
			a.Insert(tr.Packets[i].Key, 1)
		}
		for i := half; i < len(tr.Packets); i++ {
			b.Insert(tr.Packets[i].Key, 1)
		}
		if err := a.Merge(b); err != nil {
			t.Fatalf("merge: %v", err)
		}
		if got := a.SumValues(); got != o.Total() {
			t.Fatalf("trial %d: merged mass %d ≠ stream weight %d", trial, got, o.Total())
		}
		table := a.Decode()
		for _, m := range Masks() {
			agg := aggregate(table, m)
			for ki, k := range tracked[m] {
				moments[m][ki].Add(float64(agg[m.Apply(k)]))
			}
		}
	}

	for _, m := range Masks() {
		for ki, k := range tracked[m] {
			truth := float64(o.Count(m, k))
			bound := 2 * SubsetVarianceBound(uint64(truth), o.Total(), harnessBuckets)
			if err := CheckMeanWithin("merged "+m.String()+" key", moments[m][ki], truth, bound, 0, DefaultZ); err != nil {
				t.Errorf("Merge(a,b) vs Insert(a∥b): %v", err)
			}
		}
	}
}

func assertSameTable(t *testing.T, what string, want, got map[flowkey.FiveTuple]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: table sizes differ: want %d, got %d", what, len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %v: want %d, got %d", what, k, v, got[k])
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/metrics"
	"cocosketch/internal/oracle"
	"cocosketch/internal/query"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// ingestSpec is one closed-loop ingest workload: a generated trace
// replayed as whole epochs through the pooled single-queue pipeline
// into a fresh basic sketch per epoch, at maximum rate.
type ingestSpec struct {
	packets  int
	gen      func(n int, seed uint64) *trace.Trace
	memBytes int
	// epochsPerSecond converts -seconds into the fixed epoch count.
	epochsPerSecond float64
	// f1Floor is the accuracy below which the run fails.
	f1Floor float64
}

var (
	// ingestCAIDA: a 500 KB sketch fits in one core's L2, so per-packet
	// CPU (pcap read, extract, hash, update) dominates.
	ingestCAIDA = ingestSpec{
		packets: 2_000_000, gen: trace.CAIDALike, memBytes: 500 << 10,
		epochsPerSecond: 2.5, f1Floor: 0.95,
	}
	// ingestMAWI: a flatter trace (200k flows) into a 16 MB sketch,
	// several times L2, so bucket cache misses dominate.
	ingestMAWI = ingestSpec{
		packets: 2_000_000, gen: trace.MAWILike, memBytes: 16 << 20,
		epochsPerSecond: 1.8, f1Floor: 0.95,
	}
)

// sketchSeedMix separates the sketch's hash seeds from the trace seed.
const sketchSeedMix = 0x5ee4c0c0

// ingestInputs generates the trace and returns only what the run
// keeps: the capture and its exact ground truth. The decoded trace is
// dropped here, so the heap baseline taken after generation holds the
// inputs the run keeps and nothing else.
func ingestInputs(spec ingestSpec, n int, seed uint64) ([]byte, *oracle.Oracle, error) {
	tr := spec.gen(n, seed)
	capture, err := encodePCAP(tr)
	if err != nil {
		return nil, nil, err
	}
	truth := oracle.FromTrace(tr)
	truth.Precompute(oracle.Masks())
	return capture, truth, nil
}

// replayEpoch replays one capture through shard.ReplayPCAPBasic with
// one queue, timing the call as a shard.replay span.
func replayEpoch(rec *recorder, parent int, id int64, cfg core.Config, reg *telemetry.Registry, capture []byte) (*core.Basic[flowkey.FiveTuple], shard.ReplayStats, time.Duration, error) {
	h := rec.start("shard.replay", parent, id)
	t := time.Now()
	sk, st, err := shard.ReplayPCAPBasic(shard.ReplayConfig{Queues: 1, Telemetry: reg}, cfg, bytes.NewReader(capture))
	d := time.Since(t)
	rec.end(h)
	return sk, st, d, err
}

func runIngest(spec ingestSpec, p params) (*outcome, error) {
	o := newOutcome()
	n := p.scaled(spec.packets, 2000)
	cfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, p.scaled(spec.memBytes, minMemBytes), p.seed^sketchSeedMix)
	type state struct {
		capture []byte
		truth   *oracle.Oracle
		base    uint64
	}
	st, setupS, err := repeatSetup(func() (*state, time.Duration, error) {
		t0 := time.Now()
		capture, truth, err := ingestInputs(spec, n, p.seed)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		s := &state{capture: capture, truth: truth, base: liveHeap()}
		t1 := time.Now()
		_, _, _, err = replayEpoch(nil, -1, -1, cfg, nil, capture) // warm-up epoch
		return s, d + time.Since(t1), err
	}, func(*state) {})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.inputs = fingerprint(st.capture)

	epochs := p.scaled(int(math.Round(spec.epochsPerSecond*float64(p.seconds))), 2)
	var (
		rates, lat []float64
		starved    uint64
		last       *core.Basic[flowkey.FiveTuple]
	)
	rw := startRuntimeWindow()
	for e := 0; e < epochs; e++ {
		sk, rs, d, err := replayEpoch(p.rec, -1, int64(e), cfg, p.reg, st.capture)
		o.check(err == nil, "epoch %d: replay: %v", e, err)
		if err != nil {
			continue
		}
		o.check(rs.Packets == uint64(n) && sk.SumValues() == uint64(n),
			"epoch %d: %d packets replayed, sketch mass %d, %d fed", e, rs.Packets, sk.SumValues(), n)
		starved += rs.Starved
		rates = append(rates, float64(rs.Packets)/d.Seconds()/1e6)
		lat = append(lat, ms(d))
		last = sk
	}
	rw.finish(o, uint64(epochs*n))
	if last == nil {
		return o, fmt.Errorf("no epoch completed")
	}
	o.e2e["retained_heap_mb"] = retainedMB(st.base)

	table := last.Decode()
	o.checkAccuracy(st.truth, spec.f1Floor, func(m flowkey.Mask) (map[flowkey.FiveTuple]uint64, error) {
		return query.ByMask(table, m), nil
	})
	o.e2e["setup_s"] = setupS
	o.e2e["ingest_mpps"] = metrics.Percentile(rates, 50)
	o.e2e["latency_p50_ms"], o.e2e["latency_p90_ms"] = quantiles(lat)
	// Nothing ships in this workload; the wire cost of the epoch is what
	// a full-snapshot report of it would put on the wire.
	o.e2e["wire_kb_per_epoch"] = float64(last.MarshaledSize()) / 1024
	o.note("epochs %d of %d packets, %d latency samples", epochs, n, len(lat))

	if p.traced() {
		o.layers["shard.starved"] = float64(starved)
		o.layers["netwide.epochs_held"] = 0
		if err := runLedger(p, o, ledgerInput{capture: st.capture, cfg: cfg, codec: fullCodec}); err != nil {
			return o, fmt.Errorf("stage ledger: %w", err)
		}
	}
	return o, nil
}

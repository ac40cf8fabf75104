package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/metrics"
	"cocosketch/internal/ovs"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/xrand"
)

// The stage ledger runs in the traced run only, after the measured
// phase. Stages hidden inside one public call (the pcap read, key
// extraction, ring hand-off, RSS steering, hashing and bucket update
// inside ReplayPCAPBasic; the merge, decode and codec work inside
// Flush and SealEpochInto) are each timed alone, through their own
// public functions, over the workload's first epoch input at the
// workload's geometry and codec. A probe pipeline then runs a few
// epochs and queries through the agent → collector → ring → HTTP path
// on the same input, so that every layer has a number on every
// workload, including layers the workload itself bypasses. Where the
// measured run exercised a layer, its own spans are used instead.

type ledgerInput struct {
	capture []byte
	cfg     core.Config
	codec   codecSpec
}

const (
	ledgerReps   = 5
	ledgerBurst  = shard.DefaultBurst
	rssQueues    = 2 // RSSIndex short-circuits for one queue
	probeWindow  = 4
	probeQueries = 100
)

// ledgerSink keeps the results of timed loops observable, so the
// compiler cannot drop the calls they time.
var ledgerSink uint64

// layerSpan maps a per-layer metric to the spans it is read from.
type layerSpan struct {
	metric, span string
	unit         time.Duration
	pct          float64
	// perPacket divides by the epoch's packet count.
	perPacket bool
}

var layerSpans = []layerSpan{
	{"pcap.read_ns_per_pkt", "pcap.read", time.Nanosecond, 50, true},
	{"packet.extract_ns_per_pkt", "packet.extract", time.Nanosecond, 50, true},
	{"ovs.ring_ns_per_pkt", "ovs.ring", time.Nanosecond, 50, true},
	{"flowkey.rss_ns_per_pkt", "flowkey.rss", time.Nanosecond, 50, true},
	{"flowkey.hash_ns_per_pkt", "flowkey.hash", time.Nanosecond, 50, true},
	{"core.insert_ns_per_pkt", "core.insert", time.Nanosecond, 50, true},
	{"core.merge_ms", "core.merge", time.Millisecond, 50, false},
	{"core.decode_ms", "core.decode", time.Millisecond, 50, false},
	{"shard.replay_ms", "shard.replay", time.Millisecond, 50, false},
	{"report.encode_us", "report.encode", time.Microsecond, 50, false},
	{"report.decode_us", "report.decode", time.Microsecond, 50, false},
	{"netwide.absorb_us", "netwide.absorb", time.Microsecond, 50, false},
	{"netwide.end_epoch_us", "netwide.end_epoch", time.Microsecond, 50, false},
	{"netwide.flush_us", "netwide.flush", time.Microsecond, 50, false},
	// SealEpochInto's self time: the fold and clone, without Ring.Seal.
	{"netwide.fold_us", "netwide.seal_epoch_into", time.Microsecond, 50, false},
	{"window.seal_us", "window.seal", time.Microsecond, 50, false},
	{"window.handler_p50_us", "window.handler", time.Microsecond, 50, false},
	{"window.handler_p99_us", "window.handler", time.Microsecond, 99, false},
	// The client round trip minus the handler: HTTP and JSON cost.
	{"http.overhead_p50_us", "http.request", time.Microsecond, 50, false},
}

// epochInput is the capture's frames and keys, extracted once
// (untimed) to feed the stages that start after extraction.
func epochInput(capture []byte) (frames [][]byte, keys []flowkey.FiveTuple, err error) {
	r, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		return nil, nil, err
	}
	for {
		_, data, err := r.Next()
		if err == io.EOF {
			return frames, keys, nil
		}
		if err != nil {
			return nil, nil, err
		}
		k, ok := packet.ExtractFiveTuple(data)
		if !ok {
			return nil, nil, errors.New("capture holds a frame the extractor rejects")
		}
		frames = append(frames, append([]byte(nil), data...))
		keys = append(keys, k)
	}
}

// runLedger times the stages, runs the probe pipeline, and derives
// every per-layer metric not set by the workload itself.
func runLedger(p params, o *outcome, in ledgerInput) error {
	rec := p.ledger
	frames, keys, err := epochInput(in.capture)
	if err != nil {
		return err
	}
	n := len(keys)
	timed := func(name string, body func()) {
		for r := 0; r < ledgerReps; r++ {
			h := rec.start(name, -1, int64(r))
			body()
			rec.end(h)
		}
	}

	var readErr error
	timed("pcap.read", func() {
		r, err := pcap.NewReader(bytes.NewReader(in.capture))
		if err != nil {
			readErr = err
			return
		}
		slot := make([]byte, shard.DefaultSlotCap)
		for {
			_, m, err := r.ReadInto(slot)
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
			ledgerSink += uint64(m)
		}
	})
	if readErr != nil {
		return readErr
	}
	timed("packet.extract", func() {
		for _, f := range frames {
			k, _ := packet.ExtractFiveTuple(f)
			ledgerSink += uint64(k.SrcPort)
		}
	})
	timed("ovs.ring", func() {
		ring := ovs.NewRingOf[packet.FrameRef](shard.DefaultPoolSlots)
		refs := make([]packet.FrameRef, ledgerBurst)
		out := make([]packet.FrameRef, ledgerBurst)
		for off := 0; off < n; off += ledgerBurst {
			m := min(ledgerBurst, n-off)
			ring.TryPushN(refs[:m])
			ledgerSink += uint64(ring.TryPopN(out[:m]))
		}
	})
	timed("flowkey.rss", func() {
		for _, k := range keys {
			ledgerSink += uint64(flowkey.RSSIndex(k, in.cfg.Seed, rssQueues))
		}
	})
	seeds := make([]uint32, in.cfg.Arrays)
	rng := xrand.New(in.cfg.Seed)
	for i := range seeds {
		seeds[i] = uint32(rng.Uint64())
	}
	hs := make([]uint32, len(seeds))
	timed("flowkey.hash", func() {
		for _, k := range keys {
			k.HashSeeds(seeds, hs)
			ledgerSink += uint64(hs[0])
		}
	})
	var fat *core.Basic[flowkey.FiveTuple]
	for r := 0; r < ledgerReps; r++ {
		sk := core.NewBasic[flowkey.FiveTuple](in.cfg)
		h := rec.start("core.insert", -1, int64(r))
		for off := 0; off < n; off += ledgerBurst {
			sk.InsertBatchUnit(keys[off:min(off+ledgerBurst, n)])
		}
		rec.end(h)
		fat = sk
	}

	agentCodec, err := in.codec.agentCodec(in.cfg)
	if err != nil {
		return err
	}
	collectorCodec, err := in.codec.collectorCodec(in.cfg)
	if err != nil {
		return err
	}
	stage, err := agentCodec.Seal(fat)
	if err != nil {
		return fmt.Errorf("sealing: %w", err)
	}
	for r := 0; r < ledgerReps; r++ {
		agg := stage.Clone()
		h := rec.start("core.merge", -1, int64(r))
		err = agg.Merge(stage)
		rec.end(h)
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
	}
	timed("core.decode", func() { ledgerSink += uint64(len(stage.Decode())) })
	var blob []byte
	for r := 0; r < ledgerReps && err == nil; r++ {
		h := rec.start("report.encode", -1, int64(r))
		blob, err = agentCodec.NewEncoder().Encode(0, stage)
		rec.end(h)
	}
	for r := 0; r < ledgerReps && err == nil; r++ {
		dec := collectorCodec.NewDecoder()
		h := rec.start("report.decode", -1, int64(r))
		_, err = dec.Decode(0, 0, blob)
		rec.end(h)
	}
	if err != nil {
		return fmt.Errorf("report codec: %w", err)
	}

	probe := telemetry.New()
	if err := runProbe(p, in, probe); err != nil {
		return fmt.Errorf("probe pipeline: %w", err)
	}

	live, ledger := p.rec.snapshot(), rec.snapshot()
	for _, l := range layerSpans {
		ts := selfTimes(live, l.span)
		if len(ts) == 0 {
			ts = selfTimes(ledger, l.span)
		}
		v := metrics.Percentile(durations(ts, l.unit), l.pct)
		if l.perPacket {
			v /= float64(n)
		}
		o.layers[l.metric] = v
	}
	c := p.reg.Snapshot().Counters
	o.layers["core.replace_ratio"] = ratio(c["core.replaced"], c["core.matched"]+c["core.replaced"]+c["core.kept"])
	o.layers["report.ratio"] = float64(fat.MarshaledSize()) / float64(len(blob))
	if c["netwide.report_bytes"] > 0 {
		o.layers["report.ratio"] = ratio(c["netwide.report_raw_bytes"], c["netwide.report_bytes"])
	}
	if c["window.cache_hits"]+c["window.cache_misses"] == 0 {
		c = probe.Snapshot().Counters
	}
	o.layers["window.cache_hit_ratio"] = ratio(c["window.cache_hits"], c["window.cache_hits"]+c["window.cache_misses"])
	o.layers["trace.ingest_mpps"] = o.e2e["ingest_mpps"]
	o.layers["trace.latency_p50_ms"] = o.e2e["latency_p50_ms"]
	return nil
}

// runProbe drives a one-agent pipeline of the workload's geometry and
// codec with probeWindow epochs of the input and probeQueries requests
// of the query workload's mix, recording into the ledger.
func runProbe(p params, in ledgerInput, reg *telemetry.Registry) error {
	pl, err := bootPipeline(in.cfg, in.codec, 1, probeWindow, true, p.ledger, reg)
	if err != nil {
		return err
	}
	defer pl.close()
	for e := 0; e < probeWindow; e++ {
		if err := fillEpoch(pl, uint32(e), in.capture); err != nil {
			return err
		}
	}
	mix := newQueryMix(p.seed)
	for i := 0; i < probeQueries; i++ {
		m, rng := mix.next(i, pl.ring)
		if _, err := pl.get(int64(i), m, rng, queryLimit); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

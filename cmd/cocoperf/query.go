package main

import (
	"errors"
	"fmt"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/metrics"
	"cocosketch/internal/oracle"
	"cocosketch/internal/query"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// The query-under-ingest workload: one agent (full codec) is paced at
// one epoch every queryEpochEvery while one keep-alive client sends
// /query requests on an open-loop schedule. It measures the read side
// of the window tier — query engine, merge, cache and HTTP — under
// modest ingest.
const (
	queryEpochPackets = 100_000
	querySlices       = 8 // epochs cycle over this many slices of the trace
	queryEpochEvery   = 250 * time.Millisecond
	queryEvery        = 10 * time.Millisecond // 100 requests/s
	queryWindow       = 16
	queryMemBytes     = 128 << 10
	queryLimit        = 10
	queryCheckEvery   = 100
	// queryF1Floor: a 128 KB sketch over a 1.6M-packet window gives F1
	// near 0.76; below 0.7 something broke.
	queryF1Floor = 0.7
	// queryLimitMs is the p99 latency limit the run is judged against. A
	// run whose send lag p99 exceeds it is reported invalid: the
	// schedule then measured a growing backlog, not the offered rate.
	queryLimitMs = 50
	// queryRandomEvery: one request in this many takes a random range
	// and mask; the rest are the dashboard query.
	queryRandomEvery = 3
)

// queryMix draws the request mix. Most requests are the dashboard
// query, SrcIP over the whole retained ring: one merge per seal, then
// cache hits. Every queryRandomEvery-th request takes a random mask of
// oracle.Masks() over a random explicit range of at least two epochs
// that starts two epochs inside the retained bounds, so one eviction
// while the request is in flight cannot invalidate it; most of these
// miss the cache and take the merge path. The slow requests stay well
// under half, so the median measures the cached path and the tail the
// merge path, instead of the median flipping between the two.
type queryMix struct {
	rng   *xrand.Source
	masks []flowkey.Mask
}

func newQueryMix(seed uint64) *queryMix {
	return &queryMix{rng: xrand.New(seed ^ 0x9e3779b97f4a7c15), masks: oracle.Masks()}
}

var srcIPMask = flowkey.MaskFields(flowkey.FieldSrcIP)

func (q *queryMix) next(i int, r *window.Ring) (flowkey.Mask, string) {
	from, to, ok := r.Bounds()
	lo := from + 2
	if i%queryRandomEvery != queryRandomEvery-1 || !ok || to < lo+2 {
		return srcIPMask, "*"
	}
	n := 2 + q.rng.Uint64n(to-lo-1)
	s := lo + q.rng.Uint64n(to-lo-n+1)
	return q.masks[q.rng.Intn(len(q.masks))], fmt.Sprintf("%d:%d", s, s+n)
}

// verifyRows checks a response against the in-process Ring.Top for the
// window the response says it resolved.
func verifyRows(r *window.Ring, m flowkey.Mask, resp window.QueryResponse) error {
	want, err := r.Top(window.Range{From: resp.From, To: resp.To}, m, queryLimit)
	if err != nil {
		return err
	}
	if resp.Mask != m.String() || len(resp.Rows) != len(want) {
		return fmt.Errorf("[%d,%d) %s: %d rows for mask %q, want %d", resp.From, resp.To, m, len(resp.Rows), resp.Mask, len(want))
	}
	for i, w := range want {
		if got := resp.Rows[i]; got.Key != query.RenderPartial(m, w.Key) || got.Size != w.Size {
			return fmt.Errorf("[%d,%d) %s row %d: %s=%d, want %s=%d", resp.From, resp.To, m, i,
				got.Key, got.Size, query.RenderPartial(m, w.Key), w.Size)
		}
	}
	return nil
}

// queryInputs cuts one CAIDA-like trace into the epoch slices; the
// ground truth is that of the epochs [from, to).
func queryInputs(perEpoch int, seed uint64, from, to int) ([][]byte, *oracle.Oracle, error) {
	sl := splitTrace(trace.CAIDALike(perEpoch*querySlices, seed), querySlices)
	captures := make([][]byte, len(sl))
	for i, s := range sl {
		c, err := encodePCAP(s)
		if err != nil {
			return nil, nil, err
		}
		captures[i] = c
	}
	truth := windowTruth([][]*trace.Trace{sl}, from, to)
	truth.Precompute(oracle.Masks())
	return captures, truth, nil
}

func runQuery(p params) (*outcome, error) {
	o := newOutcome()
	perEpoch := p.scaled(queryEpochPackets, 1000)
	// Set-up seals epochs 0..queryWindow-1, so the ring is full when the
	// schedule starts; the measured epochs follow.
	first := queryWindow
	epochs := p.scaled(p.seconds*int(time.Second/queryEpochEvery), 1)
	requests := epochs * int(queryEpochEvery/queryEvery)
	cfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, p.scaled(queryMemBytes, minMemBytes), p.seed^sketchSeedMix)
	type state struct {
		captures [][]byte
		truth    *oracle.Oracle
		base     uint64
		pl       *pipeline
	}
	st, setupS, err := repeatSetup(func() (*state, time.Duration, error) {
		t0 := time.Now()
		captures, truth, err := queryInputs(perEpoch, p.seed, first+epochs-queryWindow, first+epochs)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		s := &state{captures: captures, truth: truth, base: liveHeap()}
		t1 := time.Now()
		if s.pl, err = bootPipeline(cfg, fullCodec, 1, queryWindow, true, p.rec, p.reg); err != nil {
			return nil, 0, err
		}
		for e := 0; e < first; e++ {
			if err := fillEpoch(s.pl, uint32(e), captures[e%querySlices]); err != nil {
				s.pl.close()
				return nil, 0, err
			}
		}
		return s, d + time.Since(t1), nil
	}, func(s *state) { s.pl.close() })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	pl := st.pl
	defer pl.close()
	o.inputs = fingerprint(st.captures...)
	p.rec.reset()
	pl.resetWire()

	rw := startRuntimeWindow()
	start := time.Now().Add(queryEvery)
	// The pacer seals one epoch per queryEpochEvery on its own
	// goroutine, reporting into its own outcome; the client runs here.
	ingest := newOutcome()
	var (
		visible   []float64
		behindMax int
		starved   uint64
		lastSeal  time.Time
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < epochs; k++ {
			due := start.Add(time.Duration(k+1) * queryEpochEvery)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			behindMax = max(behindMax, int(time.Since(due)/queryEpochEvery))
			e := uint32(first + k)
			_, rs, err := pl.agentEpoch(0, e, st.captures[int(e)%querySlices])
			ingest.check(err == nil, "epoch %d: %v", e, err)
			ingest.check(rs.Packets == uint64(perEpoch), "epoch %d: %d packets replayed, %d fed", e, rs.Packets, perEpoch)
			starved += rs.Starved
			mass, err := pl.seal(e)
			visible = append(visible, ms(time.Since(due)))
			ingest.check(err == nil, "seal epoch %d: %v", e, err)
			ingest.check(mass == uint64(perEpoch), "epoch %d sealed mass %d, %d fed", e, mass, perEpoch)
		}
		lastSeal = time.Now()
	}()

	mix := newQueryMix(p.seed)
	verifyDue := false
	schedule := time.Duration(requests) * queryEvery
	lr := openLoop{start: start, interval: queryEvery, n: requests, deadline: start.Add(schedule + 20*time.Second)}.run(func(i int) error {
		m, rng := mix.next(i, pl.ring)
		resp, err := pl.get(int64(i), m, rng, queryLimit)
		if err != nil {
			return fmt.Errorf("request %d (%s, range %s): %w", i, m, rng, err)
		}
		if i%queryCheckEvery == 0 || verifyDue {
			// A window evicted since the response can no longer be
			// recomputed; the next response is checked instead.
			err := verifyRows(pl.ring, m, resp)
			verifyDue = errors.Is(err, window.ErrEvicted)
			if !verifyDue {
				o.check(err == nil, "request %d: %v", i, err)
			}
		}
		return nil
	})
	<-done
	o.attempted += requests
	o.failed += lr.failed
	o.failures = append(o.failures, lr.errors...)
	o.attempted += ingest.attempted
	o.failed += ingest.failed
	o.failures = append(o.failures, ingest.failures...)
	lag := lr.lagP99()
	rw.finish(o, uint64(epochs*perEpoch))
	o.e2e["retained_heap_mb"] = retainedMB(st.base)

	rg := pl.ring.LastN(queryWindow)
	o.check(rg == window.Range{From: uint64(first + epochs - queryWindow), To: uint64(first + epochs)}, "ring holds %v", rg)
	o.checkWindowMass(pl.ring, rg, uint64(queryWindow*perEpoch))
	o.checkAccuracy(st.truth, queryF1Floor, func(m flowkey.Mask) (map[flowkey.FiveTuple]uint64, error) {
		return pl.ring.GroupBy(rg, m)
	})
	o.e2e["setup_s"] = setupS
	o.e2e["ingest_mpps"] = float64(epochs*perEpoch) / lastSeal.Sub(start).Seconds() / 1e6
	o.e2e["latency_p50_ms"], o.e2e["latency_p90_ms"] = quantiles(lr.latency)
	p99 := metrics.Percentile(lr.latency, 99)
	o.e2e["wire_kb_per_epoch"] = float64(pl.wireBytes()) / float64(epochs) / 1024
	o.note("requests %d at %.0f/s over %s, %d failed, latency_p99_ms %.3f, limit %d ms met: %t",
		requests, float64(time.Second)/float64(queryEvery), schedule, lr.failed, p99, queryLimitMs, p99 <= queryLimitMs)
	o.note("epochs %d of %d packets, epoch_visible_p50_ms %.3f epoch_visible_p90_ms %.3f",
		epochs, perEpoch, metrics.Percentile(visible, 50), metrics.Percentile(visible, 90))
	o.note("loadgen.lag_p99_ms %.3f loadgen.epochs_behind_max %d valid %t",
		lag, behindMax, lag <= queryLimitMs && behindMax == 0)

	if p.traced() {
		o.layers["shard.starved"] = float64(starved)
		o.layers["netwide.epochs_held"] = float64(len(pl.collector.Epochs()))
		if err := runLedger(p, o, ledgerInput{capture: st.captures[0], cfg: cfg, codec: fullCodec}); err != nil {
			return o, fmt.Errorf("stage ledger: %w", err)
		}
	}
	return o, nil
}

// fillEpoch runs one unpaced epoch of a single-agent pipeline and
// seals it.
func fillEpoch(pl *pipeline, e uint32, capture []byte) error {
	if _, _, err := pl.agentEpoch(0, e, capture); err != nil {
		return fmt.Errorf("epoch %d: %w", e, err)
	}
	if _, err := pl.seal(e); err != nil {
		return fmt.Errorf("seal epoch %d: %w", e, err)
	}
	return nil
}

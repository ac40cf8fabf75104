package main

import (
	"fmt"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/oracle"
	"cocosketch/internal/report"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

// The netwide-small-epochs workload: two agents, each sampling its own
// packets from one shared flow population (so their flows overlap),
// report small epochs through the compressed codec to one collector;
// a sealer seals every epoch both agents have delivered into a window
// ring. Many small epochs make per-epoch fixed costs dominate.
const (
	netwideAgents   = 2
	netwidePackets  = 1_600_000 // per agent
	netwideSlices   = 8         // epochs cycle over this many slices of each agent's sample
	netwideShrink   = 8
	netwideWindow   = 16
	netwideMemBytes = 500 << 10
	// netwideF1Floor: the shrink-8 stage of a 500 KB sketch keeps about
	// 3k buckets for the 6.4M packets of a 16-epoch window, so F1 sits
	// near 0.47; below 0.4 something broke.
	netwideF1Floor      = 0.4
	netwideEpochsPerSec = 12
)

// netwideInputs samples every agent's packets from one population,
// cuts them into slices and encodes each slice; the ground truth is
// that of the epochs [from, to).
func netwideInputs(perAgent int, seed uint64, from, to int) ([][][]byte, *oracle.Oracle, error) {
	pop := trace.NewPopulation(trace.CAIDAConfig(perAgent, seed))
	captures := make([][][]byte, netwideAgents)
	perSlice := make([][]*trace.Trace, netwideAgents)
	for a := range captures {
		tr := pop.Sample(fmt.Sprintf("agent%d", a), perAgent, nil, seed^uint64(a+1)*0x9e3779b97f4a7c15)
		perSlice[a] = splitTrace(tr, netwideSlices)
		for _, s := range perSlice[a] {
			c, err := encodePCAP(s)
			if err != nil {
				return nil, nil, err
			}
			captures[a] = append(captures[a], c)
		}
	}
	truth := windowTruth(perSlice, from, to)
	truth.Precompute(oracle.Masks())
	return captures, truth, nil
}

func runNetwide(p params) (*outcome, error) {
	o := newOutcome()
	perAgent := p.scaled(netwidePackets, 16*netwideSlices)
	perEpoch := perAgent / netwideSlices
	// Epoch 0 is the warm-up; the measured epochs are 1..epochs.
	epochs := p.scaled(netwideEpochsPerSec*p.seconds, netwideWindow)
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, p.scaled(netwideMemBytes, minMemBytes), p.seed^sketchSeedMix))
	type state struct {
		captures [][][]byte
		truth    *oracle.Oracle
		base     uint64
		pl       *pipeline
	}
	st, setupS, err := repeatSetup(func() (*state, time.Duration, error) {
		t0 := time.Now()
		captures, truth, err := netwideInputs(perAgent, p.seed, epochs+1-netwideWindow, epochs+1)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		s := &state{captures: captures, truth: truth, base: liveHeap()}
		t1 := time.Now()
		s.pl, err = bootPipeline(cfg, codecSpec{shrink: netwideShrink}, netwideAgents, netwideWindow, false, p.rec, p.reg)
		if err != nil {
			return nil, 0, err
		}
		for a := range s.pl.agents {
			if _, _, err := s.pl.agentEpoch(a, 0, captures[a][0]); err != nil {
				s.pl.close()
				return nil, 0, fmt.Errorf("warm-up epoch: %w", err)
			}
		}
		if _, err := s.pl.seal(0); err != nil {
			s.pl.close()
			return nil, 0, fmt.Errorf("warm-up seal: %w", err)
		}
		return s, d + time.Since(t1), nil
	}, func(s *state) { s.pl.close() })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	pl := st.pl
	defer pl.close()
	o.inputs = fingerprint(flatten(st.captures)...)
	p.rec.reset()
	pl.resetWire()

	// A closed loop in lockstep: the agents measure epoch e one after the
	// other, then the sealer seals it, and only then does epoch e+1
	// start. The seal path is on the critical path of every epoch, so
	// its latency is not the wait behind the agents' next replays; and
	// one replay at a time keeps the load at one reader and one worker
	// goroutine, so two cores run it without time-slicing.
	rw := startRuntimeWindow()
	start := time.Now()
	var (
		visible []float64
		starved uint64
	)
	for e := 1; e <= epochs; e++ {
		var last time.Time
		for a := 0; a < netwideAgents; a++ {
			ended, rs, err := pl.agentEpoch(a, uint32(e), st.captures[a][e%netwideSlices])
			o.check(err == nil, "agent %d epoch %d: %v", a, e, err)
			o.check(rs.Packets == uint64(perEpoch), "agent %d epoch %d: %d packets replayed, %d fed", a, e, rs.Packets, perEpoch)
			starved += rs.Starved
			last = ended
		}
		mass, err := pl.seal(uint32(e))
		visible = append(visible, ms(time.Since(last)))
		o.check(err == nil, "seal epoch %d: %v", e, err)
		o.check(mass == uint64(netwideAgents*perEpoch), "epoch %d sealed mass %d, %d fed", e, mass, netwideAgents*perEpoch)
	}
	elapsed := time.Since(start)
	packets := uint64(netwideAgents * epochs * perEpoch)
	rw.finish(o, packets)
	o.e2e["retained_heap_mb"] = retainedMB(st.base)

	rg := pl.ring.LastN(netwideWindow)
	o.check(rg == window.Range{From: uint64(epochs + 1 - netwideWindow), To: uint64(epochs + 1)}, "ring holds %v", rg)
	o.checkWindowMass(pl.ring, rg, uint64(netwideWindow*netwideAgents*perEpoch))
	o.checkAccuracy(st.truth, netwideF1Floor, func(m flowkey.Mask) (map[flowkey.FiveTuple]uint64, error) {
		return pl.ring.GroupBy(rg, m)
	})
	o.e2e["setup_s"] = setupS
	o.e2e["ingest_mpps"] = float64(packets) / elapsed.Seconds() / 1e6
	o.e2e["latency_p50_ms"], o.e2e["latency_p90_ms"] = quantiles(visible)
	o.e2e["wire_kb_per_epoch"] = float64(pl.wireBytes()) / float64(netwideAgents*epochs) / 1024
	o.note("epochs %d × %d agents of %d packets, %d visibility samples", epochs, netwideAgents, perEpoch, len(visible))

	if p.traced() {
		o.layers["shard.starved"] = float64(starved)
		o.layers["netwide.epochs_held"] = float64(len(pl.collector.Epochs()))
		if err := runLedger(p, o, ledgerInput{capture: st.captures[0][0], cfg: cfg, codec: codecSpec{shrink: netwideShrink}}); err != nil {
			return o, fmt.Errorf("stage ledger: %w", err)
		}
	}
	return o, nil
}

// checkWindowMass checks that the windowed total over rg equals the
// packets fed into its epochs.
func (o *outcome) checkWindowMass(r *window.Ring, rg window.Range, want uint64) {
	var zero flowkey.Mask
	total, err := r.Query(rg, zero, flowkey.FiveTuple{})
	o.check(err == nil && total == want, "window %v mass %d (err %v), %d fed", rg, total, err, want)
}

// flatten lists every capture of every agent.
func flatten(captures [][][]byte) [][]byte {
	var out [][]byte
	for _, a := range captures {
		out = append(out, a...)
	}
	return out
}

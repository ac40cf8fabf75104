package netwide

// Seeded chaos simulation suite: the hardened netwide plane runs over
// faultnet's deterministic simulated network under injected latency,
// drops, partial writes, resets, partitions and bandwidth collapse.
// Once the actors finish, the collector seals every epoch it holds by
// the serving rule (SealNext) into a window ring on the virtual clock,
// and the ring serves the per-epoch tables. Every scenario is executed
// twice per seed and must produce an identical fault transcript,
// identical telemetry and identical tables both times (determinism),
// and every run must balance the conservation ledger
//
//	observed = delivered_weight + spool_weight + dropped_weight
//
// exactly, and serve exactly the delivered weight. Run with:
// go test -race -run Chaos ./internal/netwide/ (the Makefile "chaos"
// target).

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"cocosketch/internal/faultnet"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// chaosShrink is the stage shrink factor of the matrix's "compressed"
// half; its "full" half runs at shrink 1.
const chaosShrink = 4

// chaosKey derives a deterministic 5-tuple from a flow id.
func chaosKey(id uint64) flowkey.FiveTuple {
	x := id*0x9e3779b97f4a7c15 + 1
	return flowkey.FiveTuple{
		SrcIP:   [4]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)},
		DstIP:   [4]byte{byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)},
		SrcPort: uint16(id),
		DstPort: uint16(id >> 3),
		Proto:   6,
	}
}

// feedEpoch observes one epoch's worth of synthetic traffic (64 flows,
// weights 1-3) drawn from the workload stream wl.
func feedEpoch(agent *Agent, wl *xrand.Source, packets int) {
	for p := 0; p < packets; p++ {
		id := wl.Uint64n(64)
		agent.Observe(chaosKey(id), 1+id%3)
	}
}

// chaosOpts parameterizes one scenario.
type chaosOpts struct {
	faults  faultnet.Faults
	epochs  int
	packets int // per epoch

	spoolLimit  int
	spoolPolicy SpoolPolicy
	redials     int

	// partitionAt/healAt partition the network before the given epoch's
	// traffic (healAt == epochs heals after the last epoch, before the
	// final drain; -1 disables).
	partitionAt int
	healAt      int

	// finalDrain keeps flushing after the last epoch until the spool
	// empties (bounded retries), modeling an agent that outlives the
	// fault.
	finalDrain bool

	// shrink is the agent's report shrink factor (1 ships the whole
	// epoch sketch).
	shrink int
}

// chaosResult is everything a scenario run produced, for determinism
// comparison and invariant checks.
type chaosResult struct {
	transcript []string
	agentC     map[string]uint64
	agentG     map[string]int64
	collC      map[string]uint64
	collG      map[string]int64
	// epochTables holds the full-key table the ring serves for each
	// sealed epoch; sealed lists those epochs in seal order, and held
	// the epochs the collector still holds after the last seal.
	epochTables map[uint32]map[flowkey.FiveTuple]uint64
	sealed      []uint32
	held        []uint32
	elapsed     time.Duration
}

// runChaos executes one agent/collector pair over a seeded faultnet
// network, entirely on virtual time, seals every epoch the collector
// then holds into a ring that retains them all, and returns the run's
// observable state. All blocking (deadlines, backoff sleeps, idle
// timeouts) is simulated, so even multi-minute fault timelines finish
// in milliseconds of wall time.
func runChaos(t *testing.T, seed uint64, o chaosOpts) chaosResult {
	t.Helper()
	cfg := telNetCfg()
	n := faultnet.New(seed, o.faults)
	l, err := n.Listen("collector")
	if err != nil {
		t.Fatal(err)
	}

	regC := telemetry.New()
	coll := NewCollector(cfg).
		SetTelemetry(regC).
		SetClock(n).
		SetIdleTimeout(time.Minute).
		SetSpawn(n.Go)
	n.Go(func() { _ = coll.Serve(l) })

	regA := telemetry.New()
	agent := NewAgent(1, cfg).
		SetTelemetry(regA).
		SetClock(n).
		SetWriteTimeout(10*time.Second).
		SetBackoff(NewBackoff(DefaultBackoffBase, DefaultBackoffMax, seed)).
		SetSpool(o.spoolLimit, o.spoolPolicy).
		SetCodec(mustCodec(t, cfg, o.shrink))

	n.Go(func() {
		defer l.Close()
		dial := func() (net.Conn, error) { return n.Dial("collector") }
		conn, err := dial()
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { conn.Close() }()
		wl := xrand.New(seed ^ 0xc0c0)
		for e := 0; e < o.epochs; e++ {
			if e == o.partitionAt {
				n.SetPartitioned(true)
			}
			if e == o.healAt {
				n.SetPartitioned(false)
			}
			feedEpoch(agent, wl, o.packets)
			agent.EndEpoch()
			conn, _ = agent.FlushWithRedial(conn, dial, o.redials)
		}
		if o.healAt == o.epochs {
			n.SetPartitioned(false)
		}
		if o.finalDrain {
			for tries := 0; agent.PendingEpochs() > 0 && tries < 20; tries++ {
				conn, _ = agent.FlushWithRedial(conn, dial, o.redials)
			}
		}
	})
	n.Wait()

	ring := window.NewRing(o.epochs, cfg).SetClock(n.Now)
	sealAll(t, coll, ring)
	snapA, snapC := regA.Snapshot(), regC.Snapshot()
	res := chaosResult{
		transcript:  n.Transcript(),
		agentC:      snapA.Counters,
		agentG:      snapA.Gauges,
		collC:       snapC.Counters,
		collG:       snapC.Gauges,
		epochTables: make(map[uint32]map[flowkey.FiveTuple]uint64),
		held:        coll.Epochs(),
		elapsed:     n.Now().Sub(faultnet.Base),
	}
	for _, s := range ring.Sealed() {
		e := uint32(s.Epoch)
		res.sealed = append(res.sealed, e)
		res.epochTables[e], _ = epochTable(t, ring, e)
	}
	return res
}

// checkServed asserts that the ring serves what was delivered: its
// mass over the sealed epochs is the delivered weight when the spool
// drained, and otherwise at least that and at most the weight still
// spooled more (a report can land although its acknowledgement was
// lost); and the collector holds no epoch after the last seal.
func checkServed(t *testing.T, res chaosResult) {
	t.Helper()
	var mass uint64
	for _, tab := range res.epochTables {
		for _, v := range tab {
			mass += v
		}
	}
	delivered := res.agentC["netwide.delivered_weight"]
	pending := uint64(res.agentG["netwide.spool_weight"])
	if res.agentG["netwide.spool_depth"] == 0 && mass != delivered {
		t.Errorf("ring serves mass %d, delivered %d with the spool drained", mass, delivered)
	}
	if mass < delivered || mass > delivered+pending {
		t.Errorf("ring serves mass %d outside [delivered %d, delivered + spooled %d]", mass, delivered, delivered+pending)
	}
	if len(res.held) != 0 {
		t.Errorf("collector holds epochs %v after the last seal", res.held)
	}
}

// checkLedger asserts the exact conservation invariant on the agent's
// telemetry: every observed unit of weight is acknowledged, spooled, or
// deliberately shed — faults may delay or destroy reports, but never
// silently lose accounting.
func checkLedger(t *testing.T, res chaosResult) {
	t.Helper()
	observed := res.agentC["netwide.observed"]
	delivered := res.agentC["netwide.delivered_weight"]
	pending := uint64(res.agentG["netwide.spool_weight"])
	dropped := res.agentC["netwide.dropped_weight"]
	if observed != delivered+pending+dropped {
		t.Errorf("conservation violated: observed %d != delivered %d + pending %d + dropped %d",
			observed, delivered, pending, dropped)
	}
}

// checkAllDelivered asserts the lossless outcome: the fault was
// survived with no weight shed or still in flight.
func checkAllDelivered(t *testing.T, res chaosResult) {
	t.Helper()
	if ob, dw := res.agentC["netwide.observed"], res.agentC["netwide.delivered_weight"]; ob != dw {
		t.Errorf("observed %d != delivered %d (pending %d, dropped %d)",
			ob, dw, res.agentG["netwide.spool_weight"], res.agentC["netwide.dropped_weight"])
	}
	if depth := res.agentG["netwide.spool_depth"]; depth != 0 {
		t.Errorf("spool depth = %d after drain", depth)
	}
}

// TestChaosScenarios is the seeded fault matrix: each scenario runs
// twice per seed and must be deterministic (identical transcript,
// telemetry and served tables), balance the conservation ledger, serve
// the delivered weight with nothing left held, and meet its
// scenario-specific outcome.
func TestChaosScenarios(t *testing.T) {
	seeds := []uint64{1, 7, 1234}
	scenarios := []struct {
		name  string
		opts  chaosOpts
		check func(t *testing.T, res chaosResult)
	}{
		{
			name: "baseline",
			opts: chaosOpts{
				epochs: 4, packets: 200,
				spoolLimit: 8, spoolPolicy: SpoolCoalesce,
				redials: 2, partitionAt: -1, healAt: -1, finalDrain: true,
			},
			check: func(t *testing.T, res chaosResult) {
				checkAllDelivered(t, res)
				if rc := res.agentC["netwide.reconnects"]; rc != 0 {
					t.Errorf("%d reconnects on a perfect network", rc)
				}
			},
		},
		{
			name: "latency",
			opts: chaosOpts{
				faults: faultnet.Faults{Latency: 500 * time.Millisecond, Jitter: 200 * time.Millisecond},
				epochs: 4, packets: 200,
				spoolLimit: 8, spoolPolicy: SpoolCoalesce,
				redials: 2, partitionAt: -1, healAt: -1, finalDrain: true,
			},
			check: func(t *testing.T, res chaosResult) {
				checkAllDelivered(t, res)
				// 4 report round trips of at least 2×500ms each.
				if res.elapsed < 4*time.Second {
					t.Errorf("virtual elapsed %v under injected latency, want >= 4s", res.elapsed)
				}
			},
		},
		{
			name: "drop-retry",
			opts: chaosOpts{
				faults: faultnet.Faults{DropProb: 0.3},
				epochs: 5, packets: 200,
				spoolLimit: 8, spoolPolicy: SpoolCoalesce,
				redials: 8, partitionAt: -1, healAt: -1, finalDrain: true,
			},
			check: checkAllDelivered,
		},
		{
			name: "partial-write",
			opts: chaosOpts{
				faults: faultnet.Faults{PartialProb: 0.5},
				epochs: 5, packets: 200,
				spoolLimit: 8, spoolPolicy: SpoolCoalesce,
				redials: 8, partitionAt: -1, healAt: -1, finalDrain: true,
			},
			check: checkAllDelivered,
		},
		{
			name: "reset-storm",
			opts: chaosOpts{
				faults: faultnet.Faults{ResetProb: 0.3},
				epochs: 5, packets: 200,
				spoolLimit: 8, spoolPolicy: SpoolCoalesce,
				redials: 10, partitionAt: -1, healAt: -1, finalDrain: true,
			},
			check: checkAllDelivered,
		},
		{
			name: "slow-collector",
			opts: chaosOpts{
				faults: faultnet.Faults{BandwidthBPS: 4096},
				epochs: 4, packets: 200,
				spoolLimit: 8, spoolPolicy: SpoolCoalesce,
				redials: 2, partitionAt: -1, healAt: -1, finalDrain: true,
			},
			check: func(t *testing.T, res chaosResult) {
				checkAllDelivered(t, res)
				// The cap turns payload bytes into virtual transfer time.
				minWire := time.Duration(res.agentC["netwide.report_bytes"]) * time.Second / 4096
				if res.elapsed < minWire {
					t.Errorf("elapsed %v < serialization floor %v at 4096 B/s", res.elapsed, minWire)
				}
			},
		},
		{
			name: "partition-heal-coalesce",
			opts: chaosOpts{
				epochs: 6, packets: 200,
				spoolLimit: 2, spoolPolicy: SpoolCoalesce,
				redials: 1, partitionAt: 1, healAt: 4, finalDrain: true,
			},
			check: func(t *testing.T, res chaosResult) {
				checkAllDelivered(t, res)
				if c := res.agentC["netwide.spool_coalesced"]; c == 0 {
					t.Error("partition outlasting the spool never coalesced")
				}
				// Coalesced epochs landed under their range's high epoch,
				// so some mid-partition epoch has no table of its own;
				// the serving rule moves on to the oldest held epoch
				// past it.
				sealed := res.sealed
				i := slices.IndexFunc(sealed, func(e uint32) bool { return e >= 2 })
				if i >= 0 && sealed[i] == 2 {
					t.Errorf("epoch 2 sealed (%v), want it coalesced away", sealed)
				} else if i < 0 || sealed[i] != 4 {
					t.Errorf("oldest sealed epoch at or past 2 in %v, want 4", sealed)
				}
				if len(sealed) == 0 || sealed[len(sealed)-1] != 5 {
					t.Errorf("newest sealed epoch in %v, want 5", sealed)
				}
			},
		},
		{
			name: "partition-forever-shed",
			opts: chaosOpts{
				epochs: 6, packets: 200,
				spoolLimit: 2, spoolPolicy: SpoolDropOldest,
				redials: 1, partitionAt: 2, healAt: -1, finalDrain: false,
			},
			check: func(t *testing.T, res chaosResult) {
				if res.agentC["netwide.dropped_weight"] == 0 {
					t.Error("unhealed partition shed no weight under SpoolDropOldest")
				}
				if res.agentC["netwide.dropped_epochs"] == 0 {
					t.Error("dropped_epochs not accounted")
				}
				if depth := res.agentG["netwide.spool_depth"]; depth != 2 {
					t.Errorf("spool depth = %d, want pinned at limit 2", depth)
				}
			},
		},
	}

	codecs := []struct {
		name   string
		shrink int
	}{{"full", 1}, {"compressed", chaosShrink}}
	for _, codec := range codecs {
		for _, sc := range scenarios {
			for _, seed := range seeds {
				opts := sc.opts
				opts.shrink = codec.shrink
				t.Run(fmt.Sprintf("%s/%s/seed=%d", codec.name, sc.name, seed), func(t *testing.T) {
					a := runChaos(t, seed, opts)
					b := runChaos(t, seed, opts)
					if !reflect.DeepEqual(a.transcript, b.transcript) {
						t.Errorf("same seed, diverging transcripts:\nrun A (%d events)\nrun B (%d events)",
							len(a.transcript), len(b.transcript))
					}
					if !reflect.DeepEqual(a.agentC, b.agentC) || !reflect.DeepEqual(a.agentG, b.agentG) {
						t.Error("same seed, diverging agent telemetry")
					}
					if !reflect.DeepEqual(a.collC, b.collC) || !reflect.DeepEqual(a.collG, b.collG) {
						t.Error("same seed, diverging collector telemetry")
					}
					if !reflect.DeepEqual(a.epochTables, b.epochTables) {
						t.Error("same seed, diverging served tables")
					}
					if a.elapsed != b.elapsed {
						t.Errorf("same seed, diverging virtual time: %v vs %v", a.elapsed, b.elapsed)
					}
					checkLedger(t, a)
					checkServed(t, a)
					sc.check(t, a)
				})
			}
		}
	}
}

// TestChaosBaselineBitIdenticalToTCP is the no-fault equivalence gate:
// the faultnet-backed end-to-end path must serve tables bit-identical
// to the same workload shipped over real TCP — proof the simulation
// layer itself does not perturb measurement.
func TestChaosBaselineBitIdenticalToTCP(t *testing.T) {
	const (
		seed    = uint64(1)
		epochs  = 4
		packets = 200
	)
	sim := runChaos(t, seed, chaosOpts{
		epochs: epochs, packets: packets,
		spoolLimit: 8, spoolPolicy: SpoolCoalesce,
		redials: 2, partitionAt: -1, healAt: -1, finalDrain: true,
		shrink: 1,
	})

	cfg := telNetCfg()
	coll := NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = coll.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	agent := NewAgent(1, cfg)
	wl := xrand.New(seed ^ 0xc0c0)
	for e := 0; e < epochs; e++ {
		feedEpoch(agent, wl, packets)
		agent.EndEpoch()
		if err := agent.Flush(conn); err != nil {
			t.Fatal(err)
		}
	}

	ring := window.NewRing(epochs, cfg)
	sealAll(t, coll, ring)
	for e := uint32(0); e < epochs; e++ {
		tab, ok := epochTable(t, ring, e)
		if !ok {
			t.Fatalf("TCP reference missing epoch %d", e)
		}
		simTab, ok := sim.epochTables[e]
		if !ok {
			t.Fatalf("simulated run missing epoch %d", e)
		}
		if !reflect.DeepEqual(tab, simTab) {
			t.Errorf("epoch %d table differs between faultnet and TCP paths", e)
		}
	}
}

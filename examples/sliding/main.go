// Continuous monitoring with a sliding window: the trace is split into
// time-based measurement epochs; each epoch seals its own sketch into a
// window.Ring, which keeps the last W epochs queryable through the
// windowed partial-key API while older state ages out — the deployment
// loop of a long-running monitor (and exactly what cococollector
// -window runs in production).
//
// Run: go run ./examples/sliding
package main

import (
	"fmt"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

func main() {
	cfg := trace.CAIDAConfig(600_000, 17)
	cfg.RateMpps = 2
	tr := trace.Generate(cfg) // ≈ 300 ms of traffic

	const epoch = 50 * time.Millisecond
	const retain = 3
	slices := tr.SplitByTime(epoch)
	fmt.Printf("trace spans %v → %d epochs of %v, ring retains %d\n\n",
		tr.Duration().Round(time.Millisecond), len(slices), epoch, retain)

	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 200*1024, 99)
	ring := window.NewRing(retain, sketchCfg)

	// A standing subscription rides along: the ring tells us whenever a
	// single source exceeds a tenth of an epoch, with no polling.
	srcMask := flowkey.MaskFields(flowkey.FieldSrcIP)
	events := make(chan window.Event, 16)
	ring.Subscribe(window.Subscription{
		Kind:     window.HeavyHitter,
		Mask:     srcMask,
		Fraction: 0.10,
		Limit:    1,
	}, events)

	for e, w := range slices {
		// One fresh sketch per epoch; sealing hands it to the ring and
		// makes it queryable.
		sk := core.NewBasic[flowkey.FiveTuple](sketchCfg)
		for i := range w.Packets {
			sk.Insert(w.Packets[i].Key, 1)
		}
		if err := ring.Seal(uint64(e), sk); err != nil {
			panic(err)
		}

		// Query the whole retained window (up to the last 3 epochs) with
		// the windowed partial-key API — the ring sums the epochs'
		// grouped tables, cached across repeat queries.
		rg := ring.LastN(retain)
		top, err := ring.Top(rg, srcMask, 1)
		if err != nil {
			panic(err)
		}
		var lead string
		if len(top) > 0 {
			lead = fmt.Sprintf("%s (%d)", query.RenderPartial(srcMask, top[0].Key), top[0].Size)
		}
		fmt.Printf("epoch %d: window %-6s covers %7d packets; top source %s\n",
			e, rg, windowMass(ring, rg), lead)

		// Drain any heavy-hitter events this seal fired.
		for {
			select {
			case ev := <-events:
				fmt.Printf("         event: %s %s holds ≥10%% of epoch %d\n",
					ev.Kind, query.RenderPartial(srcMask, ev.Flows[0].Key), ev.Epoch)
				continue
			default:
			}
			break
		}
	}
}

// windowMass sums the windowed table's total weight.
func windowMass(ring *window.Ring, rg window.Range) uint64 {
	eng, err := ring.Window(rg)
	if err != nil {
		panic(err)
	}
	var total uint64
	for _, v := range eng.FullTable() {
		total += v
	}
	return total
}

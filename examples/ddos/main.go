// DDoS drill-down: the paper's motivating security scenario (§2.2).
// During an attack it is unknown in advance which key will expose the
// attackers — victim address, source prefix, port... With CocoSketch,
// ONE sketch on the 5-tuple answers all of them after the fact, and
// hierarchical heavy hitters localize the attacking prefix.
//
// The example runs in two phases. First the LIVE phase: traffic is
// sealed into the continuous query-serving ring epoch by epoch, with
// standing subscriptions (internal/window) watching every seal — the
// flood announces itself through heavy-hitter and entropy-collapse
// events the moment its first epoch seals, no polling and no
// pre-declared attack signature. Then the post-hoc drill-down runs over
// the same ring's window (the sum of its epochs' tables), answering the
// partial-key questions the events raised.
//
// Run: go run ./examples/ddos
package main

import (
	"fmt"
	"sort"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/query"
	"cocosketch/internal/tasks"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

const (
	nEpochs      = 5
	epochPackets = 100_000
	floodStart   = 2 // epochs 2..4 carry the flood
	attackShare  = 3 // ~1/3 of a flood epoch is attack traffic
)

// attack synthesizes a UDP flood: a botnet inside 203.0.113.0/24 plus
// scattered /16 neighbours, all aimed at one victim port.
func attack(rng *xrand.Source) flowkey.FiveTuple {
	src := uint32(203)<<24 | 0<<16 | 113<<8 | uint32(rng.Uint64n(256))
	if rng.Uint64n(10) == 0 { // stragglers from the wider /16
		src = uint32(203)<<24 | 0<<16 | uint32(rng.Uint64n(256))<<8 | uint32(rng.Uint64n(256))
	}
	return flowkey.FiveTuple{
		SrcIP:   flowkey.IPv4FromUint32(src),
		DstIP:   [4]byte{198, 51, 100, 7}, // the victim
		SrcPort: uint16(rng.Uint64n(64512) + 1024),
		DstPort: 53,
		Proto:   packet.ProtoUDP,
	}
}

func main() {
	cfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, 1)
	ring := window.NewRing(nEpochs, cfg)
	mDst := flowkey.MaskFields(flowkey.FieldDstIP)

	// Standing subscriptions: fire at each seal, before anyone thinks
	// to ask a question.
	events := make(chan window.Event, 32)
	ring.Subscribe(window.Subscription{
		Kind: window.HeavyHitter, Mask: mDst, Fraction: 0.2, Limit: 1,
	}, events)
	ring.Subscribe(window.Subscription{
		Kind: window.Entropy, Mask: mDst, MaxEntropy: 0.6, Limit: 1,
	}, events)

	// LIVE phase: benign traffic plus (from epoch 2) the flood,
	// interleaved, one sealed epoch at a time.
	background := trace.CAIDALike(nEpochs*epochPackets, 3)
	rng := xrand.New(99)
	bi := 0
	fmt.Println("live phase (heavy-hitter ≥20% of epoch, entropy ≤0.6 over DstIP):")
	for e := 0; e < nEpochs; e++ {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for i := 0; i < epochPackets; i++ {
			if e >= floodStart && rng.Uint64n(attackShare) == 0 {
				sk.Insert(attack(rng), 1)
			} else if bi < len(background.Packets) {
				sk.Insert(background.Packets[bi].Key, 1)
				bi++
			}
		}
		if err := ring.Seal(uint64(e), sk); err != nil {
			panic(err)
		}
		fmt.Printf("epoch %d sealed", e)
		for fired := false; ; {
			select {
			case ev := <-events:
				if !fired {
					fmt.Println()
					fired = true
				}
				switch ev.Kind {
				case window.Entropy:
					fmt.Printf("  ALERT %s: DstIP entropy collapsed to %.2f, concentrated on %s\n",
						ev.Kind, ev.Entropy, query.RenderPartial(mDst, ev.Flows[0].Key))
				default:
					fmt.Printf("  ALERT %s: %s takes ≥20%% of the epoch (%d)\n",
						ev.Kind, query.RenderPartial(mDst, ev.Flows[0].Key), ev.Flows[0].Size)
				}
				continue
			default:
			}
			if !fired {
				fmt.Println(" — quiet")
			}
			break
		}
	}

	// POST-HOC drill-down: the same ring answers every partial-key
	// question over the whole retained window — no second sketch, no
	// pre-declared keys.
	engine, err := ring.Window(window.All())
	if err != nil {
		panic(err)
	}
	var total uint64
	for _, v := range engine.FullTable() {
		total += v
	}

	// Question 1: who is being hit? (DstIP was never pre-configured.)
	fmt.Println("\nvictims by DstIP:")
	fmt.Print(query.FormatRows(mDst, engine.Top(mDst, 3), 3))

	// Question 2: which service? (DstIP, DstPort)
	mSvc := flowkey.MaskFields(flowkey.FieldDstIP, flowkey.FieldDstPort)
	fmt.Println("\nvictim services by DstIP+DstPort:")
	fmt.Print(query.FormatRows(mSvc, engine.Top(mSvc, 3), 3))

	// Question 3: where does it come from? First the direct view —
	// group sources by /24 (again, never pre-configured):
	m24 := flowkey.MaskFields(flowkey.FieldSrcIP).WithPrefix(flowkey.FieldSrcIP, 24)
	fmt.Println("\nattack sources by SrcIP/24:")
	fmt.Print(query.FormatRows(m24, engine.Top(m24, 3), 3))

	// And the hierarchical view: HHH extraction over all 33 prefix
	// lengths reports the deepest aggregates above 4% of traffic with
	// conditioned counts, localizing the botnet without guessing a
	// prefix length.
	srcCounts := query.Aggregate(engine.FullTable(),
		func(k flowkey.FiveTuple) flowkey.IPv4 { return flowkey.IPv4(k.SrcIP) })
	levels := tasks.Levels1DFromCounts(srcCounts)
	hhh := tasks.ExtractHHH1D(levels, total/25)

	type node struct {
		n tasks.Node1D
		v uint64
	}
	var nodes []node
	for n, v := range hhh {
		nodes = append(nodes, node{n, v})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].v > nodes[j].v })
	fmt.Println("\nhierarchical heavy hitters over SrcIP (conditioned counts):")
	for _, nd := range nodes {
		fmt.Printf("  %-22s %10d\n", nd.n.String(), nd.v)
	}
	fmt.Println("\nthe flood's source prefix stood out live (subscriptions) and post hoc (drill-down), with no pre-declared key")
}

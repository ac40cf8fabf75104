// Network-wide measurement: several vantage points (edge switches)
// each run a CocoSketch agent; a central collector merges their
// serialized sketches over TCP and seals the epoch into a query ring,
// which answers partial-key queries about the WHOLE network — no key
// was declared anywhere in advance.
//
// Run: go run ./examples/netwide
package main

import (
	"fmt"
	"net"
	"sync"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/query"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

func main() {
	// All vantage points share one sketch configuration (required for
	// estimate-preserving merges at the collector).
	cfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, 2026)

	collector := netwide.NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer l.Close()
	go func() { _ = collector.Serve(l) }()

	// Four edge switches, each seeing its own site's traffic. Each
	// reports concurrently; the lines print in site order afterwards.
	const sites = 4
	reported := make([]int, sites)
	var wg sync.WaitGroup
	wg.Add(sites)
	for site := 0; site < sites; site++ {
		go func(site int) {
			defer wg.Done()
			agent := netwide.NewAgent(uint16(site), cfg)
			tr := trace.CAIDALike(150_000, uint64(100+site))
			for i := range tr.Packets {
				agent.Observe(tr.Packets[i].Key, 1)
			}
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				panic(err)
			}
			defer conn.Close()
			agent.EndEpoch()
			if err := agent.Flush(conn); err != nil {
				panic(err)
			}
			reported[site] = len(tr.Packets)
		}(site)
	}
	wg.Wait()
	for site, packets := range reported {
		fmt.Printf("site %d reported epoch 0 (%d packets)\n", site, packets)
	}

	// Seal the epoch into a one-epoch ring: the ring owns it from now
	// on, and the collector drops its shards.
	ring := window.NewRing(1, cfg)
	epoch, agents, ok, err := collector.SealNext(ring)
	if err != nil {
		panic(err)
	}
	if !ok {
		panic("epoch missing")
	}
	engine, err := ring.Window(window.Range{From: uint64(epoch), To: uint64(epoch) + 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncollector merged %d sites; %d network-wide flows recorded\n\n",
		agents, len(engine.FullTable()))

	for _, expr := range []string{"DstIP", "SrcIP/8", "DstPort"} {
		m, err := flowkey.ParseMask(expr)
		if err != nil {
			panic(err)
		}
		fmt.Printf("network-wide top by %s:\n%s\n", expr,
			query.FormatRows(m, engine.Top(m, 3), 3))
	}
}

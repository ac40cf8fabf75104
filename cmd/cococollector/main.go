// Command cococollector runs the network-wide measurement collector:
// it listens for CocoSketch reports from cocoagent processes, and every
// -every it merges the oldest epoch it holds into one network-wide
// sketch, seals it into a query ring (netwide.Collector.SealNext) and
// prints the epoch's top flows for the requested partial keys from the
// ring. The ring then owns the epoch: the collector drops its shards,
// and a report that arrives for it later is acknowledged and counted
// (netwide.late_reports), not served.
//
// All agents and the collector must agree on -mem, -d and -seed (the
// shared sketch configuration that makes shards mergeable; both ends
// round the memory-derived bucket count down to a multiple of
// report.GeometryAlign). Each report names the shrink its agent ships
// at (cocoagent -report-shrink), and the collector checks every stage
// against that configuration.
//
// With -telemetry the collector serves its runtime counters as
// expvar-style JSON on /debug/vars and mounts net/http/pprof under
// /debug/pprof/. With -idle-timeout a connection whose agent goes
// silent is dropped instead of holding its handler goroutine forever.
//
// With -window N the ring retains the last N sealed epochs as a
// sliding window (internal/window); without it, the ring keeps only
// the epoch being printed. With -serve-query the collector serves live
// windowed partial-key queries over the ring as JSON. The ring answers
// a window as the sum of its epochs' tables, so it serves epochs of
// agents at any -report-shrink; the agents of one fleet must still ship
// at one shrink, because the collector merges their stages into one
// epoch sketch. A failed seal is reported on stderr.
//
//	GET /query?sql=SELECT+SrcIP,+SUM(Size)+FROM+table+GROUP+BY+SrcIP&range=last:4
//	GET /epochs
//
// Usage:
//
//	cococollector -listen 127.0.0.1:7700 -keys SrcIP,DstIP+DstPort
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/query"
	"cocosketch/internal/report"
	"cocosketch/internal/sketch"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, serves agent
// reports and prints per-epoch summaries to stdout until the process
// is killed (or after the first complete epoch with -oneshot). It
// returns the process exit code: 2 for usage errors, 1 for runtime
// failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cococollector", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:7700", "address to listen on")
		memKB     = fs.Int("mem", 500, "shared sketch memory in KB")
		d         = fs.Int("d", core.DefaultArrays, "shared number of arrays")
		seed      = fs.Uint64("seed", 1, "shared sketch seed")
		keys      = fs.String("keys", "SrcIP", "comma-separated partial keys to report")
		top       = fs.Int("top", 5, "rows per partial key")
		every     = fs.Duration("every", 5*time.Second, "reporting interval")
		oneshot   = fs.Bool("oneshot", false, "print one report after the first epoch completes, then exit")
		telAddr   = fs.String("telemetry", "", "serve /debug/vars and /debug/pprof on this address (off when empty)")
		idleTO    = fs.Duration("idle-timeout", 0, "drop an agent connection after this much silence, freeing its handler (0 = never)")
		windowN   = fs.Int("window", 0, "retain the last N sealed epochs in a sliding-window query ring (0 = only the epoch being printed)")
		queryAddr = fs.String("serve-query", "", "serve the windowed JSON query endpoint (/query, /epochs) on this address (requires -window)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *d < 1 {
		fmt.Fprintf(stderr, "cococollector: -d must be at least 1, got %d\n", *d)
		return 2
	}
	if *memKB < 1 {
		fmt.Fprintf(stderr, "cococollector: -mem must be at least 1 (KB), got %d\n", *memKB)
		return 2
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "cococollector: -top must be non-negative, got %d\n", *top)
		return 2
	}
	if *every <= 0 {
		// time.Sleep returns at once for a non-positive duration, so the
		// serve loop would spin at full CPU.
		fmt.Fprintf(stderr, "cococollector: -every must be positive, got %v\n", *every)
		return 2
	}

	reg := telemetry.Disabled
	if *telAddr != "" {
		reg = telemetry.New()
		addr, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "cococollector: telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: listening on %s\n", addr)
	}

	var masks []flowkey.Mask
	for _, expr := range strings.Split(*keys, ",") {
		m, err := flowkey.ParseMask(expr)
		if err != nil {
			fmt.Fprintf(stderr, "cococollector: %v\n", err)
			return 2
		}
		masks = append(masks, m)
	}

	// Same deterministic rounding cocoagent applies: memory-derived
	// bucket counts rarely divide by a shrink factor, and the two ends
	// must agree on the fat geometry.
	cfg := report.AlignConfig(core.ConfigForMemory[flowkey.FiveTuple](*d, *memKB*1024, *seed))
	collector := netwide.NewCollector(cfg).SetTelemetry(reg).SetIdleTimeout(*idleTO)
	if *queryAddr != "" && *windowN <= 0 {
		fmt.Fprintln(stderr, "cococollector: -serve-query requires -window N (N >= 1)")
		return 2
	}
	// Every epoch seals into the ring, which then owns it: the printed
	// rows come from the ring, so each epoch is folded once.
	ring := window.NewRing(max(*windowN, 1), cfg).SetTelemetry(reg)
	if *queryAddr != "" {
		addr, err := window.Serve(*queryAddr, ring)
		if err != nil {
			fmt.Fprintf(stderr, "cococollector: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "query: listening on %s\n", addr)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "cococollector: %v\n", err)
		return 1
	}
	defer l.Close()
	fmt.Fprintf(stdout, "collecting on %s (mem %dKB, d=%d, seed %d)\n", l.Addr(), *memKB, *d, *seed)
	go func() {
		if err := collector.Serve(l); err != nil {
			fmt.Fprintf(stderr, "cococollector: serve: %v\n", err)
		}
	}()

	for {
		time.Sleep(*every)
		epoch, agents, ok, err := collector.SealNext(ring)
		if err != nil {
			fmt.Fprintf(stderr, "cococollector: seal epoch %d: %v\n", epoch, err)
			continue
		}
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "\n=== epoch %d (%d agents) ===\n", epoch, agents)
		rg := window.Range{From: uint64(epoch), To: uint64(epoch) + 1}
		for _, m := range masks {
			// Ring.Top returns every row for k <= 0; -top 0 prints
			// only the header.
			var rows []sketch.Entry[flowkey.FiveTuple]
			if *top > 0 {
				if rows, err = ring.Top(rg, m, *top); err != nil {
					fmt.Fprintf(stderr, "cococollector: epoch %d by %v: %v\n", epoch, m, err)
				}
			}
			fmt.Fprint(stdout, query.FormatRows(m, rows, *top))
		}
		if *oneshot {
			return 0
		}
	}
}

// Command cococollector runs the network-wide measurement collector:
// it listens for CocoSketch reports from cocoagent processes, merges
// each epoch's shards, and periodically prints network-wide top flows
// for the requested partial keys.
//
// All agents and the collector must agree on -mem, -d, -seed and
// -report-codec (the shared sketch configuration that makes shards
// mergeable; the compressed codec rounds the memory-derived bucket
// count down to a multiple of report.GeometryAlign on both ends).
//
// With -telemetry the collector serves its runtime counters as
// expvar-style JSON on /debug/vars and mounts net/http/pprof under
// /debug/pprof/. With -idle-timeout a connection whose agent goes
// silent is dropped instead of holding its handler goroutine forever.
//
// With -window N the collector additionally retains the last N sealed
// epochs in a sliding-window query ring (internal/window), and with
// -serve-query it serves live windowed partial-key queries as JSON.
// -window requires the full report codec: compressed reports decode at
// the agents' shrunk geometry, which the collector cannot learn at
// startup.
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
	"sort"
	"strings"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/query"
	"cocosketch/internal/report"
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
		codecName = fs.String("report-codec", "full", "report codec to accept: full (snapshots only, compatible default) or compressed (two-stage delta reports, DESIGN.md §14; also accepts full snapshots)")
		windowN   = fs.Int("window", 0, "retain the last N sealed epochs in a sliding-window query ring (0 = off)")
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

	cfg := core.ConfigForMemory[flowkey.FiveTuple](*d, *memKB*1024, *seed)
	if *codecName == "compressed" {
		// Same deterministic rounding cocoagent applies: memory-derived
		// bucket counts rarely divide by a shrink factor, and the two
		// ends must agree on the fat geometry.
		cfg = report.AlignConfig(cfg)
	}
	collector := netwide.NewCollector(cfg).SetTelemetry(reg).SetIdleTimeout(*idleTO)
	switch *codecName {
	case "full":
		// NewCollector's default decoder.
	case "compressed":
		// Shrink 1 here only parameterizes the unused encode side; the
		// decoder accepts any shrink factor the payload declares, as
		// long as it expands back to the shared geometry.
		codec, err := report.Compressed[flowkey.FiveTuple](cfg, 1, flowkey.FiveTupleFromBytes)
		if err != nil {
			fmt.Fprintf(stderr, "cococollector: %v\n", err)
			return 2
		}
		collector.SetCodec(codec)
	default:
		fmt.Fprintf(stderr, "cococollector: unknown -report-codec %q (want full or compressed)\n", *codecName)
		return 2
	}
	if *windowN > 0 && *codecName == "compressed" {
		// Compressed reports decode at the agents' stage geometry
		// (l/shrink), which the collector cannot learn at startup, so
		// a ring built at the fat geometry would reject every seal.
		fmt.Fprintln(stderr, "cococollector: -window cannot be combined with -report-codec compressed (reports decode at the agents' shrunk geometry, which the ring cannot learn at startup)")
		return 2
	}
	var ring *window.Ring
	if *queryAddr != "" && *windowN <= 0 {
		fmt.Fprintln(stderr, "cococollector: -serve-query requires -window N (N >= 1)")
		return 2
	}
	if *windowN > 0 {
		ring = window.NewRing(*windowN, cfg).SetTelemetry(reg)
		if *queryAddr != "" {
			addr, err := window.Serve(*queryAddr, ring)
			if err != nil {
				fmt.Fprintf(stderr, "cococollector: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "query: listening on %s\n", addr)
		}
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

	for next := uint32(0); ; {
		time.Sleep(*every)
		// Serve the oldest held epoch at or past next, not next itself:
		// a coalesced spool report arrives under its range's high epoch,
		// so the lower epochs it covers never arrive. The ring accepts
		// the gap, because seals only need increasing epochs.
		held := collector.Epochs()
		i := sort.Search(len(held), func(i int) bool { return held[i] >= next })
		if i == len(held) {
			continue
		}
		epoch := held[i]
		engine, ok := collector.Epoch(epoch)
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "\n=== epoch %d (%d agents) ===\n", epoch, collector.AgentsReported(epoch))
		for _, m := range masks {
			fmt.Fprint(stdout, query.FormatRows(m, engine.Top(m, *top), *top))
		}
		if ring != nil {
			// Seal the epoch's canonical fold into the query ring: from
			// here on the epoch is visible to windowed queries and the
			// JSON endpoint.
			if err := collector.SealEpochInto(ring, epoch); err != nil {
				fmt.Fprintf(stderr, "cococollector: seal epoch %d: %v\n", epoch, err)
			}
		}
		if *oneshot {
			return 0
		}
		next = epoch + 1
	}
}

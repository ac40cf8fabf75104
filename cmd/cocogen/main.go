// Command cocogen generates synthetic traces (CAIDA-like or MAWI-like,
// see DESIGN.md §5 for the substitution rationale) and writes them as
// standard pcap files replayable by cocoquery or any pcap tool.
//
// Usage:
//
//	cocogen -profile caida -packets 1000000 -seed 1 -o trace.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cocosketch/internal/trace"
)

// minSnaplen is the length of packet.Build's TCP frame (Ethernet 14 +
// IPv4 20 + TCP 20 bytes): a shorter capture keeps no 5-tuple.
const minSnaplen = 54

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile = fs.String("profile", "caida", "trace profile: caida or mawi")
		packets = fs.Int("packets", 1_000_000, "number of packets")
		seed    = fs.Uint64("seed", 1, "random seed")
		out     = fs.String("o", "trace.pcap", "output pcap path")
		snap    = fs.Uint("snaplen", 128, "pcap snapshot length")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *packets < 0 {
		fmt.Fprintf(stderr, "cocogen: -packets must be non-negative, got %d\n", *packets)
		return 2
	}
	if *snap < minSnaplen {
		fmt.Fprintf(stderr, "cocogen: -snaplen must be at least %d (Ethernet + IPv4 + TCP headers), got %d\n", minSnaplen, *snap)
		return 2
	}

	var tr *trace.Trace
	switch *profile {
	case "caida":
		tr = trace.CAIDALike(*packets, *seed)
	case "mawi":
		tr = trace.MAWILike(*packets, *seed)
	default:
		fmt.Fprintf(stderr, "cocogen: unknown profile %q (caida|mawi)\n", *profile)
		return 2
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(stderr, "cocogen: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := tr.WritePCAP(f, uint32(*snap)); err != nil {
		fmt.Fprintf(stderr, "cocogen: writing pcap: %v\n", err)
		return 1
	}
	counts := tr.FullCounts()
	fmt.Fprintf(stdout, "wrote %s: %d packets, %d flows (%s profile, seed %d)\n",
		*out, len(tr.Packets), len(counts), *profile, *seed)
	return 0
}

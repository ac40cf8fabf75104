// Command cocoquery demonstrates the arbitrary-partial-key workflow
// end to end: it builds one CocoSketch over a trace's 5-tuple full
// keys, then answers partial-key queries — either a single query given
// on the command line or an interactive REPL accepting the paper's SQL
// form (SELECT <key>, SUM(Size) FROM table GROUP BY <key>) or a bare
// mask expression like "SrcIP/24+DstIP". A -pcap capture is streamed
// through a one-queue replay (shard.ReplayPCAP), so memory is bounded
// by the sketch, not by the capture.
//
// Usage:
//
//	cocoquery -pcap trace.pcap -q "SrcIP"            # one query
//	cocoquery -packets 1000000                       # synthetic + REPL
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocoquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pcapPath = fs.String("pcap", "", "pcap file to measure (default: synthetic CAIDA-like)")
		packets  = fs.Int("packets", 1_000_000, "synthetic trace size when -pcap is unset")
		seed     = fs.Uint64("seed", 1, "random seed")
		memKB    = fs.Int("mem", 500, "sketch memory in KB")
		d        = fs.Int("d", core.DefaultArrays, "number of bucket arrays")
		q        = fs.String("q", "", "run one query (mask expression or SQL) and exit")
		top      = fs.Int("top", 10, "rows to print per query")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "cocoquery: -top must be non-negative, got %d\n", *top)
		return 2
	}
	if *d < 1 {
		fmt.Fprintf(stderr, "cocoquery: -d must be at least 1, got %d\n", *d)
		return 2
	}
	if *memKB < 1 {
		fmt.Fprintf(stderr, "cocoquery: -mem must be at least 1 (KB), got %d\n", *memKB)
		return 2
	}
	if *packets < 0 {
		fmt.Fprintf(stderr, "cocoquery: -packets must be non-negative, got %d\n", *packets)
		return 2
	}

	newSketch := func(int) *core.Basic[flowkey.FiveTuple] {
		return core.NewBasicForMemory[flowkey.FiveTuple](*d, *memKB*1024, *seed)
	}
	var (
		sk       *core.Basic[flowkey.FiveTuple]
		measured uint64
	)
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			fmt.Fprintf(stderr, "cocoquery: %v\n", err)
			return 1
		}
		var st shard.ReplayStats
		sk, st, err = shard.ReplayPCAP(shard.ReplayConfig{}, newSketch, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "cocoquery: %v\n", err)
			return 1
		}
		measured = st.Packets
	} else {
		tr := trace.CAIDALike(*packets, *seed)
		sk = newSketch(0)
		for i := range tr.Packets {
			sk.Insert(tr.Packets[i].Key, 1)
		}
		measured = uint64(len(tr.Packets))
	}

	engine := query.NewEngine(sk.Decode())
	fmt.Fprintf(stdout, "measured %d packets into a %dKB CocoSketch (d=%d); %d full-key flows recorded\n",
		measured, *memKB, *d, len(engine.FullTable()))

	if *q != "" {
		if err := runQuery(stdout, engine, *q, *top); err != nil {
			fmt.Fprintf(stderr, "cocoquery: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintln(stdout, `enter a mask ("SrcIP", "SrcIP/24+DstIP", "5-tuple") or SQL; "quit" exits`)
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "cocoquery> ")
		if !sc.Scan() {
			return 0
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return 0
		}
		if err := runQuery(stdout, engine, line, *top); err != nil {
			fmt.Fprintf(stderr, "error: %v\n", err)
		}
	}
}

func runQuery(w io.Writer, engine *query.Engine, q string, top int) error {
	var m flowkey.Mask
	var err error
	if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(q)), "SELECT") {
		m, err = query.ParseSQL(q)
	} else {
		m, err = flowkey.ParseMask(q)
	}
	if err != nil {
		return err
	}
	rows := engine.Top(m, top)
	fmt.Fprint(w, query.FormatRows(m, rows, top))
	return nil
}

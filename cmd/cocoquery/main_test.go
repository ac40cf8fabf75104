package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/trace"
)

func TestSingleQuery(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-packets", "20000", "-mem", "200", "-q", "SrcIP", "-top", "3"},
		strings.NewReader(""), &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "full-key flows recorded") {
		t.Fatalf("missing banner:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SrcIP") {
		t.Fatalf("missing result table:\n%s", out.String())
	}
}

func TestREPL(t *testing.T) {
	var out, errw bytes.Buffer
	stdin := strings.NewReader("DstPort\nSELECT SrcIP, SUM(Size) FROM table GROUP BY SrcIP\nbogus\nquit\n")
	code := run([]string{"-packets", "20000"}, stdin, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "dport=") {
		t.Fatalf("DstPort query missing:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "error:") {
		t.Fatalf("bogus input produced no error: %s", errw.String())
	}
}

func TestSQLQueryFlag(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-packets", "10000", "-q", "SELECT DstIP, SUM(Size) FROM table GROUP BY DstIP"},
		strings.NewReader(""), &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
}

func TestBadQuery(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-packets", "1000", "-q", "NoSuchField"},
		strings.NewReader(""), &out, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
}

func TestMissingPcap(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-pcap", "/does/not/exist.pcap"},
		strings.NewReader(""), &out, &errw); code != 1 {
		t.Fatalf("exit %d", code)
	}
}

func TestNegativeTopExitsUsage(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-packets", "1000", "-q", "SrcIP", "-top", "-1"},
		strings.NewReader(""), &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "-top") {
		t.Fatalf("no message about -top: %q", errw.String())
	}
}

// TestBadSizesExitUsage pins the size flags' usage errors: a value the
// sketch or the trace generator cannot honour exits 2 with a message
// naming the flag, instead of panicking or building a degenerate
// sketch.
func TestBadSizesExitUsage(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
	}{
		{"-d", "0"},
		{"-mem", "0"},
		{"-mem", "-5"},
		{"-packets", "-1"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := run([]string{"-packets", "1000", "-q", "SrcIP", tc.flag, tc.value},
				strings.NewReader(""), &out, &errw)
			if code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(errw.String(), tc.flag+" ") {
				t.Fatalf("no message about %s: %q", tc.flag, errw.String())
			}
		})
	}
}

// TestPcapMatchesSequentialSketch feeds a real capture through -pcap
// (the one-queue replay and packet.ExtractFiveTuple): the printed rows
// must be exactly those of one sketch fed the trace's packets in
// order.
func TestPcapMatchesSequentialSketch(t *testing.T) {
	tr := trace.CAIDALike(20000, 5)
	path := filepath.Join(t.TempDir(), "caida.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePCAP(f, 128); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errw bytes.Buffer
	code := run([]string{"-pcap", path, "-q", "SrcIP/24+DstIP", "-top", "15", "-mem", "64", "-seed", "5"},
		strings.NewReader(""), &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}

	sk := core.NewBasicForMemory[flowkey.FiveTuple](2, 64<<10, 5)
	for i := range tr.Packets {
		sk.Insert(tr.Packets[i].Key, 1)
	}
	m, err := flowkey.ParseMask("SrcIP/24+DstIP")
	if err != nil {
		t.Fatal(err)
	}
	want := query.FormatRows(m, query.NewEngine(sk.Decode()).Top(m, 15), 15)
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("rows differ from the sequential sketch\n--- want suffix\n%s--- got\n%s", want, out.String())
	}
}

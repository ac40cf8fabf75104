package main

import (
	"bytes"
	"strings"
	"testing"
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

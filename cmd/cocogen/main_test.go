package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cocosketch/internal/trace"
)

func TestGenerateAndReload(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.pcap")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-profile", "mawi", "-packets", "5000", "-seed", "3", "-o", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "5000 packets") {
		t.Fatalf("stdout: %s", stdout.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.FromPCAP(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 5000 {
		t.Fatalf("reloaded %d packets", len(tr.Packets))
	}
}

func TestBadProfile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-profile", "lan"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d", code)
	}
}

// TestBadSizesExitUsage pins the size flags' usage errors: a negative
// trace size, or a snaplen that cuts every frame before its 5-tuple,
// exits 2 naming the flag and writes no file.
func TestBadSizesExitUsage(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
	}{
		{"-packets", "-1"},
		{"-snaplen", "20"},
		{"-snaplen", "53"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "t.pcap")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-packets", "100", "-o", out, tc.flag, tc.value}, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.flag+" ") {
				t.Fatalf("stderr does not name %s: %q", tc.flag, stderr.String())
			}
			if _, err := os.Stat(out); err == nil {
				t.Fatal("wrote a pcap despite the usage error")
			}
		})
	}
}

func TestBadOutputPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-packets", "10", "-o", "/nonexistent-dir/x.pcap"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d", code)
	}
}

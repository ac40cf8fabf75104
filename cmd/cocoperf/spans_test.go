package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		// b overlaps a: together they cover [10, 60), not 30+30.
		{Name: "b", Start: 30, End: 60, Parent: 0},
		// c outlives its parent: only [90, 100) counts against root.
		{Name: "c", Start: 90, End: 120, Parent: 0},
		// a grandchild covers part of a, and nothing of root directly.
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		// a span never ended is neither measured nor subtracted.
		{Name: "open", Start: 50, End: -1, Parent: 0},
		{Name: "a", Start: 200, End: 210, Parent: -1},
	}
	for _, tc := range []struct {
		name string
		want []time.Duration
	}{
		{"root", []time.Duration{40}},
		{"a", []time.Duration{25, 10}},
		{"b", []time.Duration{30}},
		{"c", []time.Duration{30}},
		{"a1", []time.Duration{5}},
		{"open", nil},
	} {
		if got := selfTimes(spans, tc.name); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("selfTimes(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	rec := newRecorder()
	root := rec.start("agent.epoch", -1, 3)
	child := rec.start("netwide.flush", root, 3)
	rec.end(child)
	rec.end(root)
	other := newRecorder()
	other.end(other.start("pcap.read", -1, 0))
	want := spanFile{Workload: "w", Seed: 9, Run: rec.snapshot(), Ledger: other.snapshot()}

	var buf bytes.Buffer
	if err := writeSpans(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got spanFile
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", got, want)
	}
	if a, b := selfTimes(got.Run, "agent.epoch"), selfTimes(want.Run, "agent.epoch"); !reflect.DeepEqual(a, b) {
		t.Fatalf("self time after round trip %v, before %v", a, b)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	h := rec.start("x", -1, 0)
	rec.end(h)
	rec.reset()
	if h != -1 || rec.snapshot() != nil {
		t.Fatalf("nil recorder returned handle %d and spans %v", h, rec.snapshot())
	}
}

package netwide

// Seal-path tests: SealEpochInto hands the query-serving tier the same
// canonical fold Epoch serves, as a private clone, with ErrNoEpoch for
// absent epochs and sink errors propagated, and the fold does not depend
// on the order reports arrive in.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/window"
)

// recordSink captures Seal calls and optionally fails them.
type recordSink struct {
	epochs   []uint64
	sketches []*core.Basic[flowkey.FiveTuple]
	err      error
}

func (s *recordSink) Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error {
	if s.err != nil {
		return s.err
	}
	s.epochs = append(s.epochs, epoch)
	s.sketches = append(s.sketches, sk)
	return nil
}

func TestSealEpochIntoHandsCanonicalFoldClone(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3}
	collector := NewCollector(cfg)
	for _, agent := range []uint16{2, 1} { // arrival order ≠ canonical order
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for p := 0; p < 50; p++ {
			sk.Insert(flowkey.FiveTuple{SrcPort: agent, DstPort: uint16(p), Proto: 6}, uint64(1+p%4))
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: agent, Payload: blob}); err != nil {
			t.Fatal(err)
		}
	}

	sink := &recordSink{}
	if err := collector.SealEpochInto(sink, 0); err != nil {
		t.Fatal(err)
	}
	if len(sink.epochs) != 1 || sink.epochs[0] != 0 {
		t.Fatalf("sink sealed epochs %v, want [0]", sink.epochs)
	}
	engine, ok := collector.Epoch(0)
	if !ok {
		t.Fatal("epoch 0 missing")
	}
	want := engine.FullTable()
	if got := sink.sketches[0].Decode(); !reflect.DeepEqual(got, want) {
		t.Fatal("sealed sketch decodes differently from the collector's own epoch view")
	}

	// The sink owns a clone: mutating it must not bleed into the
	// collector's served answers.
	sink.sketches[0].Insert(flowkey.FiveTuple{Proto: 99}, 1_000_000)
	engine2, _ := collector.Epoch(0)
	if !reflect.DeepEqual(engine2.FullTable(), want) {
		t.Fatal("mutating the sealed clone changed the collector's epoch view")
	}

	// Absent epoch: ErrNoEpoch, sink untouched.
	if err := collector.SealEpochInto(sink, 7); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("seal of absent epoch: err = %v, want ErrNoEpoch", err)
	}
	if len(sink.epochs) != 1 {
		t.Fatalf("sink called for an absent epoch: %v", sink.epochs)
	}

	// Sink errors propagate.
	boom := fmt.Errorf("ring full")
	if err := collector.SealEpochInto(&recordSink{err: boom}, 0); !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

// TestSealEpochIntoRing wires the collector to the real query-serving
// ring: every sealed epoch's windowed answer must be bit-identical to
// the collector's own decode of that epoch.
func TestSealEpochIntoRing(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 5}
	collector := NewCollector(cfg)
	ring := window.NewRing(4, cfg)
	for epoch := uint32(0); epoch < 3; epoch++ {
		for _, agent := range []uint16{1, 2} {
			sk := core.NewBasic[flowkey.FiveTuple](cfg)
			for p := 0; p < 60; p++ {
				sk.Insert(flowkey.FiveTuple{SrcPort: agent, DstPort: uint16(p), Proto: 17}, uint64(1+int(epoch)+p%3))
			}
			blob, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := collector.ingest(Message{Type: MsgSketch, Epoch: epoch, AgentID: agent, Payload: blob}); err != nil {
				t.Fatal(err)
			}
		}
		if err := collector.SealEpochInto(ring, epoch); err != nil {
			t.Fatalf("seal epoch %d: %v", epoch, err)
		}
	}
	for epoch := uint32(0); epoch < 3; epoch++ {
		eng, err := ring.Window(window.Range{From: uint64(epoch), To: uint64(epoch) + 1})
		if err != nil {
			t.Fatalf("window over sealed epoch %d: %v", epoch, err)
		}
		ref, ok := collector.Epoch(epoch)
		if !ok {
			t.Fatalf("collector lost epoch %d", epoch)
		}
		if !reflect.DeepEqual(eng.FullTable(), ref.FullTable()) {
			t.Fatalf("epoch %d: ring window differs from collector decode", epoch)
		}
	}
}

// TestEpochIndependentOfArrivalOrder pins that one collector's epoch is
// a function of the reports it received, not of their arrival order:
// three agents' reports for one epoch go into fresh collectors in all
// six orders, and once more with a retried duplicate in the middle.
// Every sealed sketch must marshal to the same bytes and every Epoch
// table must be equal. The geometry is small enough that the agents'
// keys collide in most buckets, so a fold in arrival order would keep
// different keys.
func TestEpochIndependentOfArrivalOrder(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 32, Seed: 9}
	payloads := make(map[uint16][]byte)
	for _, agent := range []uint16{1, 2, 3} {
		sk := core.NewBasic[flowkey.FiveTuple](cfg)
		for p := 0; p < 200; p++ {
			sk.Insert(flowkey.FiveTuple{SrcPort: agent, DstPort: uint16(p), Proto: 6}, uint64(1+p%7))
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		payloads[agent] = blob
	}

	orders := [][]uint16{
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1},
		{2, 3, 2, 1}, // agent 2 retries after a lost ack
	}
	var wantBytes []byte
	var wantTable map[flowkey.FiveTuple]uint64
	for _, order := range orders {
		collector := NewCollector(cfg)
		for _, agent := range order {
			if err := collector.ingest(Message{Type: MsgSketch, Epoch: 0, AgentID: agent, Payload: payloads[agent]}); err != nil {
				t.Fatalf("order %v: agent %d: %v", order, agent, err)
			}
		}
		if n := collector.AgentsReported(0); n != 3 {
			t.Fatalf("order %v: %d agents reported, want 3", order, n)
		}
		sink := &recordSink{}
		if err := collector.SealEpochInto(sink, 0); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		got, err := sink.sketches[0].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		engine, ok := collector.Epoch(0)
		if !ok {
			t.Fatalf("order %v: epoch 0 missing", order)
		}
		if wantBytes == nil {
			wantBytes, wantTable = got, engine.FullTable()
			continue
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("order %v: sealed sketch bytes differ from order %v", order, orders[0])
		}
		if !reflect.DeepEqual(engine.FullTable(), wantTable) {
			t.Errorf("order %v: Epoch table differs from order %v", order, orders[0])
		}
	}
}

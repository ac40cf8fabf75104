package ovs_test

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

// buildCapture encodes a CAIDA-like trace as an in-memory Ethernet
// pcap stream, one built frame per packet. With garbageEvery > 0 every
// garbageEvery-th frame is replaced by two unparsable bytes.
func buildCapture(t *testing.T, n int, seed uint64, garbageEvery int) (*trace.Trace, []byte) {
	t.Helper()
	tr := trace.CAIDALike(n, seed)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 256)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1600000000, 0)
	for i := range tr.Packets {
		frame := packet.Build(tr.Packets[i].Key, packet.BuildOptions{})
		if garbageEvery > 0 && i%garbageEvery == 0 {
			frame = []byte{0xDE, 0xAD}
		}
		if err := w.WritePacket(ts, frame, len(frame)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// partition splits a capture into RSS receive queues.
func partition(t *testing.T, capture []byte, queues int, seed uint64) []*pcap.Queue {
	t.Helper()
	qs, err := pcap.PartitionRSS(bytes.NewReader(capture), queues, seed)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// queueKeys parses every frame of a queue, in order.
func queueKeys(t *testing.T, q *pcap.Queue) []flowkey.FiveTuple {
	t.Helper()
	r, err := q.Open()
	if err != nil {
		t.Fatal(err)
	}
	var keys []flowkey.FiveTuple
	for {
		_, frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		if key, ok := packet.ExtractFiveTuple(frame); ok {
			keys = append(keys, key)
		}
	}
}

func TestRunFramesParsesEverything(t *testing.T) {
	tr, capture := buildCapture(t, 50000, 3, 0)
	merged, st, err := shard.ReplayQueues(shard.ReplayConfig{Seed: 5},
		shard.NewBasicFactory(sketchForMemory(512*1024, 5), nil), partition(t, capture, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != uint64(len(tr.Packets)) || st.Skipped != 0 {
		t.Fatalf("parsed %d, skipped %d", st.Packets, st.Skipped)
	}
	decoded := merged.Decode()
	if got := sum(decoded); got != uint64(len(tr.Packets)) {
		t.Fatalf("decode total %d, want %d", got, len(tr.Packets))
	}
	// The top flow must be visible in the merged sketch.
	topKey, topVal := topFlow(tr)
	if got := decoded[topKey]; got < topVal/2 || got > topVal*2 {
		t.Fatalf("top flow estimate %d, true %d", got, topVal)
	}
}

func TestRunFramesSkipsGarbage(t *testing.T) {
	tr, capture := buildCapture(t, 1000, 4, 10)
	garbage := (len(tr.Packets) + 9) / 10
	_, st, err := shard.ReplayQueues(shard.ReplayConfig{Seed: 4},
		shard.NewBasicFactory(sketchForMemory(64*1024, 4), nil), partition(t, capture, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != uint64(garbage) {
		t.Fatalf("skipped = %d, want %d", st.Skipped, garbage)
	}
	if st.Packets != uint64(len(tr.Packets)-garbage) {
		t.Fatalf("parsed = %d", st.Packets)
	}
}

func TestRunFramesWithoutSketch(t *testing.T) {
	_, capture := buildCapture(t, 5000, 5, 0)
	_, st, err := shard.ReplayQueues(shard.ReplayConfig{},
		func(int) discard { return discard{} }, partition(t, capture, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 5000 {
		t.Fatalf("parsed %d", st.Packets)
	}
}

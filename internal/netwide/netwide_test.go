package netwide

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

func sharedConfig() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 4096, Seed: 77}
}

// encode is the report payload an agent sends for stage sealed as
// epoch at shrink.
func encode(t testing.TB, epoch uint32, stage *core.Basic[flowkey.FiveTuple], shrink int) []byte {
	t.Helper()
	blob, err := report.Encode(epoch, stage, shrink)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: MsgSketch, Epoch: 9, AgentID: 3, Payload: []byte("hello")}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Epoch != in.Epoch || out.AgentID != in.AgentID ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgAck, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgAck || len(out.Payload) != 0 {
		t.Fatalf("ack round trip: %+v", out)
	}
}

func TestMessageEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean close error = %v, want io.EOF", err)
	}
}

func TestMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, Message{Type: MsgSketch, Payload: []byte("abcdef")})
	data := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Fatal("truncated payload read without error")
	}
	if _, err := ReadMessage(bytes.NewReader(data[:5])); err == nil {
		t.Fatal("truncated header read without error")
	}
}

func TestMessageOversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{MsgSketch, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	buf.Write(hdr)
	if _, err := ReadMessage(&buf); err != ErrMessageTooLarge {
		t.Fatalf("oversize error = %v", err)
	}
}

// TestEndToEnd runs a collector and three agents over real TCP
// connections, replays a trace sliced across the agents, and checks
// that the network-wide partial-key view matches the whole trace.
func TestEndToEnd(t *testing.T) {
	cfg := sharedConfig()
	collector := NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = collector.Serve(l) }()

	tr := trace.CAIDALike(90_000, 5)
	const agents = 3
	var wg sync.WaitGroup
	wg.Add(agents)
	for a := 0; a < agents; a++ {
		go func(id int) {
			defer wg.Done()
			agent := NewAgent(uint16(id), cfg)
			// Each agent observes a contiguous slice of the trace
			// (distinct vantage points seeing distinct traffic).
			n := len(tr.Packets) / agents
			for _, p := range tr.Packets[id*n : (id+1)*n] {
				agent.Observe(p.Key, 1)
			}
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			agent.EndEpoch()
			if err := agent.Flush(conn); err != nil {
				t.Error(err)
			}
			if agent.Epoch() != 1 {
				t.Errorf("agent %d epoch = %d after report", id, agent.Epoch())
			}
		}(a)
	}
	wg.Wait()

	if got := collector.AgentsReported(0); got != agents {
		t.Fatalf("reported agents = %d, want %d", got, agents)
	}
	engine, ok := collector.Epoch(0)
	if !ok {
		t.Fatal("epoch 0 missing")
	}

	// Total conservation across the network.
	var total uint64
	for _, v := range engine.FullTable() {
		total += v
	}
	want := uint64(len(tr.Packets) / agents * agents)
	if total != want {
		t.Fatalf("network-wide total = %d, want %d", total, want)
	}

	// The globally largest source must top the network-wide SrcIP query.
	truth := map[flowkey.IPv4]uint64{}
	for _, p := range tr.Packets[:want] {
		truth[flowkey.IPv4(p.Key.SrcIP)]++
	}
	var topSrc flowkey.IPv4
	var topVal uint64
	for k, v := range truth {
		if v > topVal {
			topSrc, topVal = k, v
		}
	}
	m := flowkey.MaskFields(flowkey.FieldSrcIP)
	rows := engine.Top(m, 1)
	if len(rows) == 0 {
		t.Fatal("no rows from network-wide query")
	}
	if flowkey.IPv4(rows[0].Key.SrcIP) != topSrc {
		t.Fatalf("network-wide top source %v, want %v", flowkey.IPv4(rows[0].Key.SrcIP), topSrc)
	}
	est := float64(rows[0].Size)
	if est < float64(topVal)*0.8 || est > float64(topVal)*1.2 {
		t.Fatalf("top source estimate %v, true %d", est, topVal)
	}

	// Missing epoch is reported as absent.
	if _, ok := collector.Epoch(42); ok {
		t.Fatal("phantom epoch present")
	}
}

func TestDuplicateReportIgnored(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3}
	collector := NewCollector(cfg)

	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 10)
	msg := Message{Type: MsgSketch, Epoch: 0, AgentID: 1, Payload: encode(t, 0, sk, 1)}
	if err := collector.ingest(msg); err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(msg); err != nil { // retry after lost ack
		t.Fatal(err)
	}
	engine, _ := collector.Epoch(0)
	var total uint64
	for _, v := range engine.FullTable() {
		total += v
	}
	if total != 10 {
		t.Fatalf("duplicate report double counted: total = %d", total)
	}
}

func TestIngestRejectsIncompatibleSketch(t *testing.T) {
	cfg := core.Config{Arrays: 2, BucketsPerArray: 64, Seed: 3}
	collector := NewCollector(cfg)
	// First shard fixes the epoch geometry; a shrink-2 stage fits the
	// Config but not the epoch's full-geometry shard, and a stage of
	// another Config fits neither: both must be rejected.
	a := core.NewBasic[flowkey.FiveTuple](cfg)
	if err := collector.ingest(Message{Type: MsgSketch, AgentID: 1, Payload: encode(t, 0, a, 1)}); err != nil {
		t.Fatal(err)
	}
	half, err := a.ExtractStage(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := collector.ingest(Message{Type: MsgSketch, AgentID: 2, Payload: encode(t, 0, half, 2)}); err == nil {
		t.Fatal("shard of another geometry than the epoch's accepted")
	}
	b := core.NewBasic[flowkey.FiveTuple](core.Config{Arrays: 2, BucketsPerArray: 128, Seed: 3})
	if err := collector.ingest(Message{Type: MsgSketch, AgentID: 3, Payload: encode(t, 0, b, 1)}); err == nil {
		t.Fatal("shard of another Config accepted")
	}
}

// TestIngestRejectsGarbagePayload feeds the collector payloads that do
// not decode: bytes that are no report, a report relabelled as wire
// version 2, and a report cut short. Each must be refused as corrupt,
// counted in netwide.decode_failures, and never counted as received
// or stored.
func TestIngestRejectsGarbagePayload(t *testing.T) {
	reg := telemetry.New()
	collector := NewCollector(sharedConfig()).SetTelemetry(reg)
	sk := core.NewBasic[flowkey.FiveTuple](sharedConfig())
	sk.Insert(flowkey.FiveTuple{Proto: 6, SrcPort: 80}, 10)
	valid := encode(t, 0, sk, 1)
	v2 := bytes.Clone(valid)
	v2[4] = 2

	for i, payload := range [][]byte{[]byte("junk"), v2, valid[:len(valid)-1]} {
		err := collector.ingest(Message{Type: MsgSketch, AgentID: 1, Payload: payload})
		if !errors.Is(err, report.ErrCorrupt) {
			t.Fatalf("payload %d: ingest = %v, want report.ErrCorrupt", i, err)
		}
		if got, want := reg.Counter("netwide.decode_failures").Value(), uint64(i+1); got != want {
			t.Errorf("payload %d: netwide.decode_failures = %d, want %d", i, got, want)
		}
	}
	if got := reg.Counter("netwide.reports_received").Value(); got != 0 {
		t.Errorf("netwide.reports_received = %d, want 0", got)
	}
	if n := collector.AgentsReported(0); n != 0 {
		t.Errorf("epoch 0 holds %d shards after only corrupt reports", n)
	}
}

package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// replaySketchCfg is the sketch geometry used across the replay tests.
func replaySketchCfg() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 2048, Seed: 42}
}

// replayCapture encodes a CAIDA-like trace as an in-memory pcap stream
// and returns both forms.
func replayCapture(t testing.TB, n int, snapLen uint32) (*trace.Trace, []byte) {
	t.Helper()
	tr := trace.CAIDALike(n, 9)
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf, snapLen); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// sequentialSketch replays the capture through the legacy path — full
// FromPCAP decode, then one sequential sketch — and returns the sketch.
func sequentialSketch(t testing.TB, data []byte, bytesMode bool) *core.Basic[flowkey.FiveTuple] {
	t.Helper()
	tr, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewBasic[flowkey.FiveTuple](replaySketchCfg())
	keys := make([]flowkey.FiveTuple, 0, len(tr.Packets))
	ws := make([]uint64, 0, len(tr.Packets))
	for i := range tr.Packets {
		keys = append(keys, tr.Packets[i].Key)
		ws = append(ws, uint64(tr.Packets[i].Size))
	}
	if bytesMode {
		s.InsertBatch(keys, ws)
	} else {
		s.InsertBatchUnit(keys)
	}
	return s
}

// sequentialDecode returns the decode table of sequentialSketch.
func sequentialDecode(t testing.TB, data []byte, bytesMode bool) map[flowkey.FiveTuple]uint64 {
	t.Helper()
	return sequentialSketch(t, data, bytesMode).Decode()
}

// marshal serializes s, RNG state included, failing the test on error.
func marshal(t *testing.T, s *core.Basic[flowkey.FiveTuple]) []byte {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// diffTables fails the test unless the two decode tables are identical.
func diffTables(t *testing.T, got, want map[flowkey.FiveTuple]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decode table size %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("key %v: got %d (present=%v), want %d", k, g, ok, w)
		}
	}
}

// replaySlotCounts are the in-flight bounds the replay equivalence
// tests run at: the default, and 100 — not a power of two and below
// the handoff ring's 128 — so the bound, not the ring, stops the
// reader, and the ring has spare capacity.
var replaySlotCounts = []int{0, 100}

// TestReplayOneQueueMatchesSequential pins the tentpole's correctness
// anchor: a 1-queue pooled replay returns a sketch that marshals byte
// for byte, RNG state included, like the legacy FromPCAP +
// sequential-sketch path's, in both packet-count and byte-weight
// modes.
func TestReplayOneQueueMatchesSequential(t *testing.T) {
	const n = 20000
	_, data := replayCapture(t, n, 256)
	for _, slots := range replaySlotCounts {
		for _, bytesMode := range []bool{false, true} {
			merged, st, err := ReplayPCAPBasic(
				ReplayConfig{Queues: 1, Seed: 42, Bytes: bytesMode, PoolSlots: slots},
				replaySketchCfg(), bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(t, merged), marshal(t, sequentialSketch(t, data, bytesMode))) {
				t.Fatalf("slots=%d bytes=%v: replayed sketch differs from the sequential sketch", slots, bytesMode)
			}
			if st.Packets != n || st.Skipped != 0 {
				t.Fatalf("slots=%d bytes=%v: stats %+v, want all %d frames inserted", slots, bytesMode, st, n)
			}
		}
	}
}

// referenceSketch builds the N-queue sketch with no pipeline code:
// it partitions the packets by flowkey.RSSIndex, inserts each part in
// order into its own sketch of NewBasicFactory, and merges parts
// 0..N-1 in order into the factory's sketch N.
func referenceSketch(t *testing.T, cfg core.Config, seed uint64, queues int, bytesMode bool, ps []trace.Packet) *core.Basic[flowkey.FiveTuple] {
	t.Helper()
	newSketch := NewBasicFactory(cfg, nil)
	parts := make([]*core.Basic[flowkey.FiveTuple], queues)
	for i := range parts {
		parts[i] = newSketch(i)
	}
	for _, p := range ps {
		w := uint64(1)
		if bytesMode {
			w = uint64(p.Size)
		}
		parts[flowkey.RSSIndex(p.Key, seed, queues)].Insert(p.Key, w)
	}
	merged := newSketch(queues)
	for i, part := range parts {
		if err := merged.Merge(part); err != nil {
			t.Fatalf("merging part %d: %v", i, err)
		}
	}
	return merged
}

// TestReplayFeedsMatchReference pins the multi-queue half for every
// feed: an N-queue ReplayPCAP of a capture, ReplayQueues over its
// pcap.PartitionRSS split, and ReplayPackets over the packets
// trace.FromPCAP decodes from it all leave the buckets and RNG state
// of referenceSketch — same seed, same split, same per-queue insert
// order — in packet-count and byte-weight modes. Each packet's Size is
// the pcap original length the pcap feeds weight by.
func TestReplayFeedsMatchReference(t *testing.T) {
	const seed = 7
	_, data := replayCapture(t, 20000, 256)
	tr, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sketchCfg := replaySketchCfg()
	for _, queues := range []int{2, 4} {
		parts, err := pcap.PartitionRSS(bytes.NewReader(data), queues, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, bytesMode := range []bool{false, true} {
			want := referenceSketch(t, sketchCfg, seed, queues, bytesMode, tr.Packets)
			cfg := ReplayConfig{Queues: queues, Seed: seed, Bytes: bytesMode}
			feeds := []struct {
				name string
				run  func() (*core.Basic[flowkey.FiveTuple], ReplayStats, error)
			}{
				{"ReplayPCAP", func() (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
					return ReplayPCAPBasic(cfg, sketchCfg, bytes.NewReader(data))
				}},
				{"ReplayQueues", func() (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
					return ReplayQueues(cfg, NewBasicFactory(sketchCfg, nil), parts)
				}},
				{"ReplayPackets", func() (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
					return ReplayPackets(cfg, NewBasicFactory(sketchCfg, nil), tr.Packets)
				}},
			}
			for _, f := range feeds {
				got, st, err := f.run()
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if st.Queues != queues || st.Packets != uint64(len(tr.Packets)) {
					t.Fatalf("%s queues=%d: stats %+v, want %d queues and %d packets",
						f.name, queues, st, queues, len(tr.Packets))
				}
				sameState(t, fmt.Sprintf("%s queues=%d bytes=%v", f.name, queues, bytesMode), got, want)
			}
		}
	}
}

// TestReplayPCAPSplitMatchesPartition pins the one-reader split: an
// N-queue ReplayPCAP of one stream marshals byte for byte like
// ReplayQueues over the pcap.PartitionRSS split of the same capture,
// with the same frame accounting. The stream holds undecodable (ARP)
// frames and frames longer than the reader's buffer, and the in-flight
// bounds include 4, so the reader parks on one queue while the others
// hold records it has not sent.
func TestReplayPCAPSplitMatchesPartition(t *testing.T) {
	tr := trace.CAIDALike(20000, 9)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 512)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	base := time.Unix(1600000000, 0)
	for i := range tr.Packets {
		frame := packet.Build(tr.Packets[i].Key, packet.BuildOptions{PayloadLen: i % 300})
		if err := w.WritePacket(base, frame, len(frame)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			if err := w.WritePacket(base, arp, len(arp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, queues := range []int{2, 3} {
		for _, slots := range []int{0, 100, 4} {
			cfg := ReplayConfig{Queues: queues, Seed: 7, PoolSlots: slots, SlotCap: 96, Bytes: true}
			got, gotSt, err := ReplayPCAPBasic(cfg, replaySketchCfg(), bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			parts, err := pcap.PartitionRSS(bytes.NewReader(data), queues, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := ReplayQueues(cfg, NewBasicFactory(replaySketchCfg(), nil), parts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(t, got), marshal(t, want)) {
				t.Fatalf("queues=%d slots=%d: split replay differs from the partitioned replay", queues, slots)
			}
			gotSt.Starved, wantSt.Starved = 0, 0 // scheduling, not content
			if gotSt != wantSt || gotSt.Skipped == 0 || gotSt.Truncated == 0 {
				t.Fatalf("queues=%d slots=%d: split stats %+v, partitioned %+v (want equal, with skips and truncations)",
					queues, slots, gotSt, wantSt)
			}
		}
	}
}

// TestReplayPCAPSplitHoldsNoCapture checks that a multi-queue
// ReplayPCAP streams its capture: it allocates a small fraction of the
// bytes it replays, where a partition pass would copy all of them.
func TestReplayPCAPSplitHoldsNoCapture(t *testing.T) {
	_, data := replayCapture(t, 50000, 256)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := ReplayPCAPBasic(ReplayConfig{Queues: 4, Seed: 7}, replaySketchCfg(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(data))/4 {
		t.Fatalf("4-queue replay of a %d-byte capture allocated %d bytes", len(data), alloc)
	}
}

// TestReplaySkipsUndecodableFrames checks the FromPCAP-mirroring skip
// convention: frames the extractor rejects are counted and excluded
// from the sketch, every frame is accounted for, and the remaining
// packets still match the sequential path.
func TestReplaySkipsUndecodableFrames(t *testing.T) {
	tr := trace.CAIDALike(2000, 3)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 256)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	const arpFrames = 7
	base := time.Unix(1600000000, 0)
	for i := range tr.Packets {
		frame := packet.Build(tr.Packets[i].Key, packet.BuildOptions{})
		if err := w.WritePacket(base, frame, len(frame)); err != nil {
			t.Fatal(err)
		}
		if i < arpFrames {
			if err := w.WritePacket(base, arp, len(arp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, slots := range replaySlotCounts {
		for _, queues := range []int{1, 3} {
			merged, st, err := ReplayPCAPBasic(
				ReplayConfig{Queues: queues, Seed: 5, PoolSlots: slots},
				replaySketchCfg(), bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if st.Skipped != arpFrames {
				t.Fatalf("slots=%d queues=%d: skipped %d frames, want %d", slots, queues, st.Skipped, arpFrames)
			}
			if st.Packets != uint64(len(tr.Packets)) {
				t.Fatalf("slots=%d queues=%d: inserted %d packets, want %d", slots, queues, st.Packets, len(tr.Packets))
			}
			if written := uint64(len(tr.Packets) + arpFrames); st.Packets+st.Skipped != written {
				t.Fatalf("slots=%d queues=%d: accounted for %d frames, %d written", slots, queues, st.Packets+st.Skipped, written)
			}
			if queues == 1 {
				diffTables(t, merged.Decode(), sequentialDecode(t, data, false))
			}
		}
	}
}

// TestReplayTruncatesToSlotCap checks NIC snapshot-length semantics: a
// reader buffer smaller than the captured frames stores a prefix, the
// header bytes survive, and decode equality with the sequential path
// holds (all headers fit in the first 96 bytes of these frames).
func TestReplayTruncatesToSlotCap(t *testing.T) {
	_, data := replayCapture(t, 5000, 512)
	merged, st, err := ReplayPCAPBasic(
		ReplayConfig{Queues: 1, Seed: 42, SlotCap: 96},
		replaySketchCfg(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated == 0 {
		t.Fatal("no truncations recorded with a 96-byte buffer")
	}
	if st.Skipped != 0 {
		t.Fatalf("truncation to 96 bytes must keep headers decodable, skipped %d", st.Skipped)
	}
	diffTables(t, merged.Decode(), sequentialDecode(t, data, false))
}

// deepHeaderFrame hand-builds frame i of a flow set with the deepest
// header stacks ExtractFiveTuple reads, which packet.Build cannot
// produce: an 802.1Q tag, then IPv4 with IHL 15 or IPv6, then TCP
// with data offset 15 or UDP. The frame is padded to a full 1514-byte
// Ethernet frame, so at the default buffer size the payload is dropped.
func deepHeaderFrame(i int) []byte {
	f := make([]byte, 1514)
	f[12], f[13] = byte(packet.EtherTypeVLAN>>8), byte(packet.EtherTypeVLAN&0xFF)
	f[15] = 7 // VLAN ID
	ip := f[18:]
	proto := []uint8{packet.ProtoTCP, packet.ProtoUDP}[i%2]
	var l4 []byte
	if i%3 == 0 {
		f[16], f[17] = byte(packet.EtherTypeIPv6>>8), byte(packet.EtherTypeIPv6&0xFF)
		ip[0] = 0x60
		ip[6] = proto
		ip[8], ip[23] = 0x20, byte(i%37) // source 2000::/16
		ip[24], ip[39] = 0x20, byte(i%11)
		l4 = ip[40:]
	} else {
		f[16], f[17] = byte(packet.EtherTypeIPv4>>8), byte(packet.EtherTypeIPv4&0xFF)
		ip[0] = 0x4F // IHL 15: 40 option bytes
		ip[9] = proto
		copy(ip[12:16], []byte{10, 0, byte(i % 5), byte(i % 37)})
		copy(ip[16:20], []byte{192, 168, 1, byte(i % 11)})
		l4 = ip[60:]
	}
	l4[0], l4[1] = 0x80, byte(i%13)
	l4[2], l4[3] = 0x01, 0xBB
	if proto == packet.ProtoTCP {
		l4[12] = 0xF0 // data offset 15: 40 option bytes
	}
	return f
}

// TestReplayHeaderSlotsKeepKeys pins the default buffer size: frames
// with the deepest accepted header stacks, padded to 1514 bytes,
// replay at DefaultSlotCap to the sketch that trace.FromPCAP plus
// sequential inserts builds from the whole frames, in packet-count and
// byte-weighted modes.
func TestReplayHeaderSlotsKeepKeys(t *testing.T) {
	if DefaultSlotCap < packet.MaxKeyHeaderLen {
		t.Fatalf("DefaultSlotCap %d is below the %d-byte header bound", DefaultSlotCap, packet.MaxKeyHeaderLen)
	}
	const n = 3000
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 65535)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Original lengths past the capture vary the byte weights.
		if err := w.WritePacket(time.Unix(int64(i), 0), deepHeaderFrame(i), 1514+i%64); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, bytesMode := range []bool{false, true} {
		merged, st, err := ReplayPCAPBasic(ReplayConfig{Queues: 1, Seed: 42, Bytes: bytesMode},
			replaySketchCfg(), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != n || st.Skipped != 0 || st.Truncated != n {
			t.Fatalf("bytes=%v: stats %+v, want %d packets, all inserted and truncated", bytesMode, st, n)
		}
		diffTables(t, merged.Decode(), sequentialDecode(t, data, bytesMode))
	}
}

// TestReplayBackpressureStarvation checks the backpressure-not-drop
// contract: with an in-flight bound smaller than one burst the reader
// must stall on it (Starved > 0), yet every packet is still delivered
// and the decode table is unchanged.
func TestReplayBackpressureStarvation(t *testing.T) {
	const n = 5000
	_, data := replayCapture(t, n, 256)
	merged, st, err := ReplayPCAPBasic(
		ReplayConfig{Queues: 1, Seed: 42, PoolSlots: 4},
		replaySketchCfg(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Starved == 0 {
		t.Fatal("a 4-frame bound replayed 5000 packets without a single starvation event")
	}
	if st.Packets != n {
		t.Fatalf("stats %+v: want all %d frames inserted", st, n)
	}
	diffTables(t, merged.Decode(), sequentialDecode(t, data, false))
}

// slowSketch is a basic CocoSketch whose batched insert first spins
// for slowInsert, so the worker is always the bottleneck and the
// reader keeps finding the in-flight bound reached.
type slowSketch struct {
	*core.Basic[flowkey.FiveTuple]
}

const slowInsert = 20 * time.Microsecond

func (s slowSketch) InsertBatchUnit(keys []flowkey.FiveTuple) {
	for start := time.Now(); time.Since(start) < slowInsert; {
	}
	s.Basic.InsertBatchUnit(keys)
}

func (s slowSketch) Merge(other slowSketch) error { return s.Basic.Merge(other.Basic) }

// TestReplayReaderParksWhenStarved checks that a starved feed — the
// pcap reader or the in-memory feed — parks instead of spinning: each
// park lasts until the worker has inserted a quarter of the bound, so
// a 64-frame bound allows at most one park per 16 packets — a feed
// that polled the bound would count a stall on every poll. Parking
// must not change what the sketch sees.
func TestReplayReaderParksWhenStarved(t *testing.T) {
	const n = 4000
	_, data := replayCapture(t, n, 256)
	tr, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	newSketch := func(int) slowSketch {
		return slowSketch{core.NewBasic[flowkey.FiveTuple](replaySketchCfg())}
	}
	cfg := ReplayConfig{Queues: 1, PoolSlots: 64}
	feeds := map[string]func() (slowSketch, ReplayStats, error){
		"pcap":   func() (slowSketch, ReplayStats, error) { return ReplayPCAP(cfg, newSketch, bytes.NewReader(data)) },
		"memory": func() (slowSketch, ReplayStats, error) { return ReplayPackets(cfg, newSketch, tr.Packets) },
	}
	for name, run := range feeds {
		merged, st, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Starved == 0 {
			t.Fatalf("%s: a feed outrunning a slow worker never parked", name)
		}
		if limit := st.Packets/16 + 1; st.Starved > limit {
			t.Fatalf("%s: feed stalled %d times for %d packets, want at most %d (one park per quarter bound)",
				name, st.Starved, st.Packets, limit)
		}
		if st.Packets != n {
			t.Fatalf("%s: stats %+v: want all %d frames inserted", name, st, n)
		}
		diffTables(t, merged.Decode(), sequentialDecode(t, data, false))
	}
}

// TestReplaySteadyStateNoAllocs is the zero-allocation gate: driving
// the full replay→decode→InsertBatch loop — ReadFrame's view of the
// pcap reader's block buffer, key extraction, ring handoff, batch
// insert, release — allocates nothing per burst in steady state, and
// neither does steering in-memory packets into the same queues. The
// steppable readBurst and steer and the worker's drain let one
// goroutine alternate the two sides deterministically.
func TestReplaySteadyStateNoAllocs(t *testing.T) {
	_, data := replayCapture(t, 30000, 256)
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cfg := normalizeReplay(ReplayConfig{Queues: 1, Seed: 42})
	sketch := core.NewBasic[flowkey.FiveTuple](replaySketchCfg())
	q, w := newQueue(cfg, 0, pr, sketch)
	// Warm the pipeline through one full burst cycle first.
	if _, err := q.readBurst(); err != nil {
		t.Fatal(err)
	}
	w.drain()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := q.readBurst(); err != nil {
			t.Fatal(err)
		}
		w.drain()
	}); n != 0 {
		t.Fatalf("steady-state burst allocates %.1f times, want 0", n)
	}
	if q.done {
		t.Fatal("trace exhausted during the alloc gate; enlarge the capture")
	}

	// The in-memory feed: steering a burst of packets across two
	// queues, then draining both, allocates nothing either.
	tr := testTrace(30000, 5)
	memCfg := normalizeReplay(ReplayConfig{Queues: 2, Seed: 42})
	qs, workers := newQueues(memCfg, NewBasicFactory(replaySketchCfg(), nil), memCfg.Queues)
	next := 0
	steerBurst := func() {
		for _, p := range tr.Packets[next : next+DefaultBurst] {
			if steer(qs, memCfg.Seed, p.Key, p.Size) != nil {
				t.Fatal("in-flight bound reached though every burst is drained")
			}
		}
		next += DefaultBurst
		for _, w := range workers {
			for w.drain() > 0 {
			}
		}
	}
	steerBurst()
	if n := testing.AllocsPerRun(200, steerBurst); n != 0 {
		t.Fatalf("steady-state in-memory burst allocates %.1f times, want 0", n)
	}
}

// TestReplayBoundsFramesInFlight pins what PoolSlots means: a feed —
// a pcap reader, or in-memory packets steered to several queues —
// whose worker does not drain pushes exactly PoolSlots records, though
// the ring rounds its capacity up to 128, and each drained burst lets
// exactly one more burst in.
func TestReplayBoundsFramesInFlight(t *testing.T) {
	_, data := replayCapture(t, 1000, 256)
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	q, w := newQueue(normalizeReplay(ReplayConfig{PoolSlots: 100}), 0, pr,
		core.NewBasic[flowkey.FiveTuple](replaySketchCfg()))
	pushed := 0
	for {
		n, err := q.readBurst()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		pushed += n
	}
	if pushed != 100 || q.ring.Len() != 100 || q.done {
		t.Fatalf("pushed %d records (ring holds %d, done=%v), want the bound of 100", pushed, q.ring.Len(), q.done)
	}
	if got := w.drain(); got != DefaultBurst {
		t.Fatalf("drained %d records, want one burst of %d", got, DefaultBurst)
	}
	if n, err := q.readBurst(); err != nil || n != DefaultBurst {
		t.Fatalf("after one drained burst the reader pushed %d (err %v), want %d", n, err, DefaultBurst)
	}

	// The in-memory feed over three queues whose workers drain only a
	// full queue: no queue ever holds more than PoolSlots records in
	// flight, steer reports a queue full exactly when it holds that
	// many, and after one drained burst it takes exactly one burst more.
	tr := testTrace(20000, 3)
	memCfg := normalizeReplay(ReplayConfig{Queues: 3, Seed: 3, PoolSlots: 100})
	qs, workers := newQueues(memCfg, NewBasicFactory(replaySketchCfg(), nil), memCfg.Queues)
	since := make([]int, len(qs))
	fulls := make([]int, len(qs))
	for _, p := range tr.Packets {
		i := flowkey.RSSIndex(p.Key, memCfg.Seed, len(qs))
		since[i]++
		full := steer(qs, memCfg.Seed, p.Key, p.Size)
		for j, qj := range qs {
			if n := qj.inFlight(); n > 100 || qj.ring.Len() != n {
				t.Fatalf("queue %d: %d records in flight, ring holds %d, bound 100", j, n, qj.ring.Len())
			}
		}
		if full == nil {
			continue
		}
		if full != qs[i] || full.inFlight() != 100 {
			t.Fatalf("steer reported a full queue with %d in flight after steering to queue %d", full.inFlight(), i)
		}
		want := DefaultBurst // one drained burst frees one burst of room
		if fulls[i] == 0 {
			want = 100
		}
		if since[i] != want {
			t.Fatalf("queue %d took %d records before its bound was full, want %d", i, since[i], want)
		}
		fulls[i]++
		since[i] = 0
		if got := workers[i].drain(); got != DefaultBurst {
			t.Fatalf("drained %d records, want one burst of %d", got, DefaultBurst)
		}
	}
	for i, f := range fulls {
		if f < 2 {
			t.Fatalf("queue %d reached its bound %d times; the trace should fill it repeatedly", i, f)
		}
	}
}

// TestReplayTelemetry checks the burst-level ingest instruments: the
// registry's counters must agree with the returned stats, and the
// per-queue occupancy gauge must exist.
func TestReplayTelemetry(t *testing.T) {
	_, data := replayCapture(t, 5000, 256)
	reg := telemetry.New()
	_, st, err := ReplayPCAPBasic(
		ReplayConfig{Queues: 2, Seed: 1, Telemetry: reg},
		replaySketchCfg(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ingest.skipped").Value(); got != st.Skipped {
		t.Fatalf("ingest.skipped = %d, stats say %d", got, st.Skipped)
	}
	if got := reg.Counter("ingest.pool_starved").Value(); got != st.Starved {
		t.Fatalf("ingest.pool_starved = %d, stats say %d", got, st.Starved)
	}
	for _, name := range []string{"ingest.pool_occupancy.q0", "ingest.pool_occupancy.q1"} {
		found := false
		for _, n := range reg.Names() {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("gauge %s not registered", name)
		}
	}
}

// BenchmarkReplayQueues measures pooled replay throughput at 1 and 4
// simulated receive queues over a pre-partitioned capture (partitioning
// is setup, not steady state). The benchsmoke gate compares the two
// sub-benchmarks to enforce the multi-queue speedup on multi-core CI.
func BenchmarkReplayQueues(b *testing.B) {
	_, data := replayCapture(b, 100000, 128)
	for _, queues := range []int{1, 4} {
		qs, err := pcap.PartitionRSS(bytes.NewReader(data), queues, 42)
		if err != nil {
			b.Fatal(err)
		}
		name := "queues-1"
		if queues == 4 {
			name = "queues-4"
		}
		b.Run(name, func(b *testing.B) {
			sketchCfg := replaySketchCfg()
			var packets uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := ReplayQueues(
					ReplayConfig{Seed: 42},
					NewBasicFactory(sketchCfg, nil), qs)
				if err != nil {
					b.Fatal(err)
				}
				packets = st.Packets
			}
			b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
		})
	}
}

package shard

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/trace"
)

// decoderCorpus returns the frames of internal/packet's on-disk
// FuzzDecoder seed corpus: truncated VLAN tags, IPv4 options, an IHL
// past the frame end, fragments, and generated seeds.
func decoderCorpus(f *testing.F) [][]byte {
	dir := filepath.Join("..", "packet", "testdata", "fuzz", "FuzzDecoder")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var frames [][]byte
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		_, arg, ok := strings.Cut(strings.TrimSpace(string(body)), "\n[]byte(")
		if !ok || !strings.HasSuffix(arg, ")") {
			f.Fatalf("%s: not a one-[]byte fuzz corpus file", e.Name())
		}
		frame, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		frames = append(frames, []byte(frame))
	}
	return frames
}

// joinFrames encodes frames as a FuzzReplayMatchesSequential input:
// each frame preceded by its length as a 2-byte big-endian prefix.
func joinFrames(frames ...[]byte) []byte {
	var in []byte
	for _, fr := range frames {
		in = binary.BigEndian.AppendUint16(in, uint16(len(fr)))
		in = append(in, fr...)
	}
	return in
}

// splitFrames inverts joinFrames; a length running past the input
// takes what is left.
func splitFrames(in []byte) [][]byte {
	var frames [][]byte
	for len(in) >= 2 {
		n := min(int(binary.BigEndian.Uint16(in)), len(in)-2)
		frames = append(frames, in[2:2+n])
		in = in[2+n:]
	}
	return frames
}

// FuzzReplayMatchesSequential replays fuzzed frame sequences through a
// one-queue replay whose in-flight bound of 4 keeps the reader parking,
// byte-weighted: the sketch must decode to the table trace.FromPCAP
// plus a sequential sketch builds from the same capture, and Skipped
// must count exactly the frames FromPCAP dropped. Frames longer than
// DefaultSlotCap reach the extractor as a prefix, so this also checks
// that no key or acceptance depends on the bytes past it. Seeds are
// internal/packet's FuzzDecoder corpus plus IPv6, 802.1Q, non-IP and
// 1514-byte frames.
func FuzzReplayMatchesSequential(f *testing.F) {
	corpus := decoderCorpus(f)
	tcp := flowkey.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
	}
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	extra := [][]byte{
		deepHeaderFrame(0), deepHeaderFrame(1), deepHeaderFrame(2),
		arp,
		packet.Build(tcp, packet.BuildOptions{PayloadLen: 400}),
		packet.Build(tcp, packet.BuildOptions{VLANID: 5}),
	}
	for _, fr := range corpus {
		f.Add(joinFrames(fr, fr, fr, fr, fr))
	}
	f.Add(joinFrames(corpus...))
	f.Add(joinFrames(extra...))
	f.Add(joinFrames(append(extra, corpus...)...))

	f.Fuzz(func(t *testing.T, in []byte) {
		frames := splitFrames(in)
		var capture bytes.Buffer
		w, err := pcap.NewWriter(&capture, pcap.LinkTypeEthernet, 65535)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range frames {
			if err := w.WritePacket(time.Unix(int64(i), 0), fr, len(fr)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		data := capture.Bytes()

		got, st, err := ReplayPCAPBasic(ReplayConfig{Queues: 1, PoolSlots: 4, Bytes: true},
			replaySketchCfg(), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.FromPCAP(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != uint64(len(tr.Packets)) || st.Skipped != uint64(len(frames)-len(tr.Packets)) {
			t.Fatalf("replay inserted %d and skipped %d of %d frames; FromPCAP kept %d",
				st.Packets, st.Skipped, len(frames), len(tr.Packets))
		}
		diffTables(t, got.Decode(), sequentialDecode(t, data, true))
	})
}

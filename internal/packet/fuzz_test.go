package packet

import (
	"testing"

	"cocosketch/internal/flowkey"
)

// maxFuzzFrame bounds the frames replayed through the poisoned slot in
// FuzzDecoder (fuzzing can generate inputs larger than any slot).
const maxFuzzFrame = 4096

// FuzzDecoder throws arbitrary frames at the 5-tuple extractors: they
// must never panic or read out of bounds, the lean replay extractor
// must agree bit for bit with the error-reporting Decoder, and
// extraction from a slot's filled prefix must match extraction
// from an exact-length copy (no reads past the fill length). Seeds
// cover the adversarial header shapes: truncated VLAN tags, IPv4
// options (IHL > 5), and fragment offsets; the on-disk corpus under
// testdata/fuzz/FuzzDecoder pins the same shapes for CI's fuzz-smoke
// job.
func FuzzDecoder(f *testing.F) {
	tcp := flowkey.FiveTuple{
		SrcIP: [4]byte{1, 2, 3, 4}, DstIP: [4]byte{5, 6, 7, 8},
		SrcPort: 80, DstPort: 443, Proto: ProtoTCP,
	}
	f.Add(Build(tcp, BuildOptions{PayloadLen: 16}))
	f.Add(Build(flowkey.FiveTuple{Proto: ProtoUDP}, BuildOptions{VLANID: 7}))
	f.Add([]byte{})
	f.Add(make([]byte, 13))
	// Truncated VLAN: the tag ethertype announces 802.1Q but the frame
	// ends inside the tag.
	f.Add(Build(tcp, BuildOptions{VLANID: 9})[:16])
	// IHL > 5: an IPv4 header with options (and one whose IHL points
	// past the frame end).
	f.Add(ipv4OptionsFrame(tcp))
	ihlLier := Build(tcp, BuildOptions{})
	ihlLier[14] = 0x4F // IHL 15: 60-byte header the frame does not have
	f.Add(ihlLier)
	// Non-zero fragment offset: no L4 header at the L4 position.
	f.Add(fragmentFrame(tcp))

	buf := make([]byte, maxFuzzFrame)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var d Decoder
		key, err := d.FiveTuple(frame)
		lean, ok := ExtractFiveTuple(frame)
		if ok != (err == nil) {
			t.Fatalf("extract ok=%v but decoder err=%v", ok, err)
		}
		if ok && lean != key {
			t.Fatalf("extract %v != decoder %v", lean, key)
		}
		// Replay slot convention: decode from a slot prefix whose spare
		// capacity is poisoned; a read past the fill diverges here.
		if len(frame) <= maxFuzzFrame {
			for i := range buf {
				buf[i] = 0xAA
			}
			n := copy(buf, frame)
			slotKey, slotOK := ExtractFiveTuple(buf[:n])
			if slotOK != ok || (ok && slotKey != lean) {
				t.Fatalf("slot decode (%v,%v) != exact decode (%v,%v)",
					slotKey, slotOK, lean, ok)
			}
		}
		if err != nil {
			return
		}
		// A successfully decoded frame must rebuild to a frame that
		// decodes to the same key (when TCP/UDP).
		if key.Proto == ProtoTCP || key.Proto == ProtoUDP {
			again, err := d.FiveTuple(Build(key, BuildOptions{}))
			if err != nil {
				t.Fatalf("rebuild of decoded key failed: %v", err)
			}
			if again != key {
				t.Fatalf("rebuild round trip: %v != %v", again, key)
			}
		}
	})
}

package packet

import (
	"testing"

	"cocosketch/internal/flowkey"
)

// extractFrames is the corpus the differential tests sweep: every
// protocol shape the builder can produce plus hand-crafted headers the
// builder cannot (IPv4 options, fragments, TCP options, IPv6).
func extractFrames() map[string][]byte {
	tcp := flowkey.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 443, DstPort: 51234, Proto: ProtoTCP,
	}
	udp := tcp
	udp.Proto = ProtoUDP
	icmp := flowkey.FiveTuple{
		SrcIP: [4]byte{192, 168, 0, 1}, DstIP: [4]byte{192, 168, 0, 9}, Proto: 1,
	}
	frames := map[string][]byte{
		"tcp":          Build(tcp, BuildOptions{PayloadLen: 32}),
		"udp":          Build(udp, BuildOptions{PayloadLen: 9}),
		"tcp-vlan":     Build(tcp, BuildOptions{VLANID: 42}),
		"udp-vlan":     Build(udp, BuildOptions{VLANID: 4095}),
		"icmp":         Build(icmp, BuildOptions{PayloadLen: 8}),
		"zero-payload": Build(tcp, BuildOptions{}),
	}
	frames["ihl6-options"] = ipv4OptionsFrame(tcp)
	frames["fragment"] = fragmentFrame(tcp)
	frames["ipv6"] = ipv6Frame()
	frames["double-vlan"] = doubleVLANFrame(tcp)
	frames["not-ip"] = arpFrame()
	return frames
}

// ipv4OptionsFrame builds a TCP frame whose IPv4 header carries one
// 4-byte option (IHL 6) — a shape Build never produces.
func ipv4OptionsFrame(key flowkey.FiveTuple) []byte {
	f := Build(key, BuildOptions{PayloadLen: 4})
	out := make([]byte, 0, len(f)+4)
	out = append(out, f[:14]...)   // ethernet
	out = append(out, f[14:34]...) // ipv4 base header
	out = append(out, 1, 1, 1, 0)  // NOP NOP NOP EOL options
	out = append(out, f[34:]...)   // l4 + payload
	out[14] = 0x46                 // version 4, IHL 6
	out[16] = byte((len(out) - 14) >> 8)
	out[17] = byte(len(out) - 14)
	return out
}

// fragmentFrame sets a non-zero fragment offset on a TCP frame: the
// decoder does not reassemble, so it still parses the bytes at the L4
// position — the differential property must hold regardless.
func fragmentFrame(key flowkey.FiveTuple) []byte {
	f := Build(key, BuildOptions{PayloadLen: 16})
	f[20] = 0x20 // more fragments, offset high bits
	f[21] = 0x10 // offset 16 × 8 bytes
	return f
}

// ipv6Frame is a minimal IPv6/UDP frame.
func ipv6Frame() []byte {
	f := make([]byte, 14+40+8)
	f[12], f[13] = byte(EtherTypeIPv6>>8), byte(EtherTypeIPv6&0xFF)
	ip := f[14:]
	ip[0] = 6 << 4
	ip[4], ip[5] = 0, 8 // payload length
	ip[6] = ProtoUDP
	ip[7] = 64
	for i := 8; i < 40; i++ {
		ip[i] = byte(i)
	}
	udp := ip[40:]
	udp[0], udp[1] = 0x00, 0x35
	udp[2], udp[3] = 0xC0, 0x00
	udp[5] = 8
	return f
}

// doubleVLANFrame stacks two 802.1Q tags; the decoder consumes one and
// rejects the inner tag's ethertype as unsupported.
func doubleVLANFrame(key flowkey.FiveTuple) []byte {
	f := Build(key, BuildOptions{VLANID: 7})
	out := make([]byte, 0, len(f)+4)
	out = append(out, f[:14]...)
	out = append(out, byte(7), 0x00, byte(EtherTypeVLAN>>8), byte(EtherTypeVLAN&0xFF))
	out = append(out, f[14:]...)
	return out
}

// arpFrame is an Ethernet frame with a non-IP ethertype.
func arpFrame() []byte {
	f := make([]byte, 42)
	f[12], f[13] = 0x08, 0x06
	return f
}

// TestExtractMatchesDecoder sweeps every corpus frame and every prefix
// of it: ExtractFiveTuple must accept exactly when Decoder.FiveTuple
// returns nil error, and produce the identical key. Sweeping prefixes
// exercises every truncation boundary in both parsers.
func TestExtractMatchesDecoder(t *testing.T) {
	var d Decoder
	for name, frame := range extractFrames() {
		for n := 0; n <= len(frame); n++ {
			sub := frame[:n]
			want, err := d.FiveTuple(sub)
			got, ok := ExtractFiveTuple(sub)
			if ok != (err == nil) {
				t.Fatalf("%s[:%d]: extract ok=%v, decoder err=%v", name, n, ok, err)
			}
			if ok && got != want {
				t.Fatalf("%s[:%d]: extract %v != decoder %v", name, n, got, want)
			}
		}
	}
}

// TestExtractFromPoolSlot checks the replay slot calling convention:
// the extractor sees only the slot's filled prefix, and extracting
// from the slot (whose capacity extends past the fill) is identical to
// extracting from an exact-length copy — i.e. the parser never reads
// past the fill length.
func TestExtractFromPoolSlot(t *testing.T) {
	buf := make([]byte, 2048)
	for name, frame := range extractFrames() {
		for i := range buf {
			buf[i] = 0xAA // poison: a read past the fill would see this
		}
		n := copy(buf, frame)
		gotSlot, okSlot := ExtractFiveTuple(buf[:n])
		exact := append([]byte(nil), frame...)
		gotExact, okExact := ExtractFiveTuple(exact)
		if okSlot != okExact || gotSlot != gotExact {
			t.Fatalf("%s: slot decode (%v,%v) != exact decode (%v,%v)",
				name, gotSlot, okSlot, gotExact, okExact)
		}
	}
}

// TestMaxKeyHeaderLen pins the bound replay slots are sized by: the
// deepest header stack the extractor accepts (802.1Q, IPv4 IHL 15, TCP
// data offset 15) needs exactly MaxKeyHeaderLen bytes.
func TestMaxKeyHeaderLen(t *testing.T) {
	f := make([]byte, MaxKeyHeaderLen)
	f[12], f[13] = byte(EtherTypeVLAN>>8), byte(EtherTypeVLAN&0xFF)
	f[16], f[17] = byte(EtherTypeIPv4>>8), byte(EtherTypeIPv4&0xFF)
	f[18] = 0x4F // version 4, IHL 15
	f[18+9] = ProtoTCP
	f[18+60+12] = 0xF0 // data offset 15
	if _, ok := ExtractFiveTuple(f); !ok {
		t.Fatalf("deepest header stack rejected at %d bytes", len(f))
	}
	if _, ok := ExtractFiveTuple(f[:len(f)-1]); ok {
		t.Fatalf("deepest header stack accepted at %d bytes", len(f)-1)
	}
}

func TestExtractNoAllocs(t *testing.T) {
	valid := Build(flowkey.FiveTuple{
		SrcIP: [4]byte{1, 2, 3, 4}, DstIP: [4]byte{5, 6, 7, 8},
		SrcPort: 80, DstPort: 8080, Proto: ProtoTCP,
	}, BuildOptions{PayloadLen: 64})
	truncated := valid[:17]
	arp := arpFrame()
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := ExtractFiveTuple(valid); !ok {
			t.Fatal("valid frame rejected")
		}
		if _, ok := ExtractFiveTuple(truncated); ok {
			t.Fatal("truncated frame accepted")
		}
		if _, ok := ExtractFiveTuple(arp); ok {
			t.Fatal("non-IP frame accepted")
		}
	}); n != 0 {
		t.Fatalf("ExtractFiveTuple allocates %.1f times per run, want 0", n)
	}
}

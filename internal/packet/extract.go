package packet

import "cocosketch/internal/flowkey"

// MaxKeyHeaderLen is the longest frame prefix ExtractFiveTuple reads:
// Ethernet (14) + one 802.1Q tag (4) + an IPv4 header with IHL 15 (60)
// + a TCP header with data offset 15 (60). Any frame cut to this many
// bytes yields the key and the acceptance of the whole frame.
const MaxKeyHeaderLen = 14 + 4 + 60 + 60

// ExtractFiveTuple is the allocation-free 5-tuple extractor of the
// pooled ingest pipeline. It accepts exactly the frames
// Decoder.FiveTuple accepts and produces the identical key (the
// differential property is fuzzed in fuzz_test.go), but reports
// failure as ok == false instead of constructing an error, so the
// reject path — non-IP traffic, truncated frames — costs no
// allocation either. The frame is only read within len(frame): the
// extractor works directly on a replay slot's filled prefix with no
// copying.
//
// Like Decoder.FiveTuple, it consumes one optional 802.1Q tag, folds
// IPv6 addresses into the IPv4 key space, and leaves ports zero for
// non-TCP/UDP protocols.
func ExtractFiveTuple(frame []byte) (key flowkey.FiveTuple, ok bool) {
	if len(frame) < 14 {
		return key, false
	}
	etherType := uint16(frame[12])<<8 | uint16(frame[13])
	rest := frame[14:]
	if etherType == EtherTypeVLAN {
		if len(rest) < 4 {
			return key, false
		}
		etherType = uint16(rest[2])<<8 | uint16(rest[3])
		rest = rest[4:]
	}

	switch etherType {
	case EtherTypeIPv4:
		if len(rest) < 20 || rest[0]>>4 != 4 {
			return key, false
		}
		hdrLen := int(rest[0]&0x0F) * 4
		if hdrLen < 20 || len(rest) < hdrLen {
			return key, false
		}
		key.SrcIP = [4]byte(rest[12:16])
		key.DstIP = [4]byte(rest[16:20])
		key.Proto = rest[9]
		rest = rest[hdrLen:]
	case EtherTypeIPv6:
		if len(rest) < 40 || rest[0]>>4 != 6 {
			return key, false
		}
		key.SrcIP = foldIPv6([16]byte(rest[8:24]))
		key.DstIP = foldIPv6([16]byte(rest[24:40]))
		key.Proto = rest[6]
		rest = rest[40:]
	default:
		return key, false
	}

	switch key.Proto {
	case ProtoTCP:
		if len(rest) < 20 {
			return key, false
		}
		hdrLen := int(rest[12]>>4) * 4
		if hdrLen < 20 || len(rest) < hdrLen {
			return key, false
		}
		key.SrcPort = uint16(rest[0])<<8 | uint16(rest[1])
		key.DstPort = uint16(rest[2])<<8 | uint16(rest[3])
	case ProtoUDP:
		if len(rest) < 8 {
			return key, false
		}
		key.SrcPort = uint16(rest[0])<<8 | uint16(rest[1])
		key.DstPort = uint16(rest[2])<<8 | uint16(rest[3])
	}
	return key, true
}

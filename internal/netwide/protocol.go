// Package netwide implements network-wide measurement on top of
// CocoSketch: every vantage point (switch/agent) measures its local
// traffic into a CocoSketch with a shared configuration, ships each
// epoch's sealed stage to a collector over TCP as a CRPT v3 report,
// and the collector merges the agents' stages — merging is
// estimate-preserving (see core.Merge) — and seals each epoch once
// into an EpochSink, the query ring that answers partial-key queries
// about the whole network.
//
// This is the deployment §2.2 of the paper motivates (network-wide
// diagnosis without pre-declared keys), built from the repository's own
// primitives: the report codec, core merging and a small
// length-prefixed wire protocol.
//
// Epoch reports go through the one report codec (internal/report,
// wire format in DESIGN.md §14): each distinct key of the sealed stage
// once, with its counters, and the collector re-hashes every key into
// its buckets. An agent picks its shrink factor at construction
// (Agent.SetCodec; shrink 1, the default, ships the epoch sketch
// itself, losslessly), and every epoch it spools, retries and accounts
// for goes through that codec. Reports carry their shrink and hash
// seeds, so the collector needs no codec setting: it checks each stage
// against its Config.
package netwide

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire protocol: every message is
//
//	type u8 | epoch u32 | agentID u16 | length u32 | payload [length]byte
//
// little-endian. Payload of MsgSketch is a CRPT v3 epoch report
// (internal/report, DESIGN.md §14) of the stage the agent's codec
// sealed.
const (
	// MsgSketch carries one agent's epoch sketch.
	MsgSketch = 1
	// MsgAck confirms a received sketch (empty payload).
	MsgAck = 2
)

// MaxPayload bounds message sizes (a 5-tuple sketch of ~256 MB).
const MaxPayload = 256 << 20

// Message is one protocol frame.
type Message struct {
	Type    uint8
	Epoch   uint32
	AgentID uint16
	Payload []byte
}

// ErrMessageTooLarge reports an oversized payload.
var ErrMessageTooLarge = errors.New("netwide: message exceeds MaxPayload")

// WriteMessage encodes one frame.
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Payload) > MaxPayload {
		return ErrMessageTooLarge
	}
	var hdr [11]byte
	hdr[0] = m.Type
	binary.LittleEndian.PutUint32(hdr[1:5], m.Epoch)
	binary.LittleEndian.PutUint16(hdr[5:7], m.AgentID)
	binary.LittleEndian.PutUint32(hdr[7:11], uint32(len(m.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("netwide: writing header: %w", err)
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return fmt.Errorf("netwide: writing payload: %w", err)
		}
	}
	return nil
}

// ReadMessage decodes one frame. io.EOF is returned verbatim on a
// clean connection close.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [11]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("netwide: reading header: %w", err)
	}
	m := Message{
		Type:    hdr[0],
		Epoch:   binary.LittleEndian.Uint32(hdr[1:5]),
		AgentID: binary.LittleEndian.Uint16(hdr[5:7]),
	}
	n := binary.LittleEndian.Uint32(hdr[7:11])
	if n > MaxPayload {
		return Message{}, ErrMessageTooLarge
	}
	if n > 0 {
		m.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return Message{}, fmt.Errorf("netwide: reading payload: %w", err)
		}
	}
	return m, nil
}

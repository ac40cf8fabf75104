// Package netwide implements network-wide measurement on top of
// CocoSketch: every vantage point (switch/agent) measures its local
// traffic into a CocoSketch with a shared configuration, ships the
// serialized sketch to a collector over TCP at the end of each epoch,
// and the collector merges the shards — merging is estimate-preserving
// (see core.Merge) — to answer partial-key queries about the whole
// network.
//
// This is the deployment §2.2 of the paper motivates (network-wide
// diagnosis without pre-declared keys), built from the repository's own
// primitives: core serialization, core merging and a small
// length-prefixed wire protocol.
//
// Epoch reports go through a pluggable codec (internal/report): the
// default Full codec ships bit-identical sketch snapshots, while the
// Compressed codec keeps the fat sketch on the agent and ships a
// shrunken, delta-encoded stage per epoch — roughly an order of
// magnitude fewer report bytes (wire format in DESIGN.md §14). Both
// Agent and Collector select a codec with SetCodec; an agent picks one
// at construction, and every epoch it spools, retries and accounts for
// goes through that codec.
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
// little-endian. Payload of MsgSketch is an epoch report sealed by the
// agent's codec: a core.(*Basic).MarshalBinary snapshot ("COCO" magic)
// under the full codec, or a CRPT compressed report (internal/report,
// DESIGN.md §14) under the compressed codec.
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

package report

import (
	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// fullCodec is the compatible default: every report is a complete
// core.MarshalBinary snapshot, exactly the pre-codec wire format.
type fullCodec[K flowkey.Key] struct {
	decode core.KeyDecoder[K]
}

// Full returns the snapshot codec: Seal is the identity, Encode is
// core's MarshalBinary, Decode is core.UnmarshalBasic with the given
// key decoder. Payloads produced by Full are byte-for-byte identical
// to the pre-report-codec wire format, so a Full agent interoperates
// with any collector (the Compressed decoder also accepts snapshot
// payloads; see DESIGN.md §14's compatibility matrix).
func Full[K flowkey.Key](decode core.KeyDecoder[K]) Codec[K] {
	return &fullCodec[K]{decode: decode}
}

func (c *fullCodec[K]) Name() string { return "full" }

func (c *fullCodec[K]) Seal(fat *core.Basic[K]) (*core.Basic[K], error) {
	return fat, nil
}

func (c *fullCodec[K]) NewEncoder() Encoder[K] { return fullEncoder[K]{} }

func (c *fullCodec[K]) NewDecoder() Decoder[K] { return fullDecoder[K]{decode: c.decode} }

// fullEncoder is stateless: snapshots are always self-contained, so
// Ack and Reset have nothing to track.
type fullEncoder[K flowkey.Key] struct{}

func (fullEncoder[K]) Encode(epoch uint32, stage *core.Basic[K]) ([]byte, error) {
	return stage.MarshalBinary()
}

func (fullEncoder[K]) Ack(epoch uint32, stage *core.Basic[K]) {}

func (fullEncoder[K]) Reset() {}

// fullDecoder parses snapshot payloads only. A compressed payload
// fails core's magic check, which is the desired strictness: a
// collector pinned to -report-codec=full never accepts delta state it
// cannot verify.
type fullDecoder[K flowkey.Key] struct {
	decode core.KeyDecoder[K]
}

func (d fullDecoder[K]) Decode(agent uint16, epoch uint32, payload []byte) (*core.Basic[K], error) {
	return core.UnmarshalBasic(payload, d.decode)
}

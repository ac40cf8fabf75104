package report

import (
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// The pre-v3 names below are thin wrappers over the one codec, kept
// only because cmd/cocoperf still builds its codecs through them.
// ROADMAP item 1 (one perf harness) moves it onto New, Codec.Encode
// and Decode, and deletes them.

// Full returns the shrink-1 codec, whose lossless stage replaced full
// snapshots; decode parses keys for NewDecoder.
//
// Deprecated: use New with shrink 1; ROADMAP item 1 (one perf harness) removes it.
func Full[K flowkey.Key](decode KeyDecoder[K]) Codec[K] {
	return Codec[K]{shrink: 1, decode: decode}
}

// Compressed returns New(cfg, shrink), with decode parsing keys for
// NewDecoder.
//
// Deprecated: use New; ROADMAP item 1 (one perf harness) removes it.
func Compressed[K flowkey.Key](cfg core.Config, shrink int, decode KeyDecoder[K]) (Codec[K], error) {
	c, err := New[K](cfg, shrink)
	c.decode = decode
	return c, err
}

// Encoder encodes stages with its codec; it keeps no state.
//
// Deprecated: use Codec.Encode; ROADMAP item 1 (one perf harness) removes it.
type Encoder[K flowkey.Key] struct{ c Codec[K] }

// NewEncoder returns an Encoder for c.
//
// Deprecated: use Codec.Encode; ROADMAP item 1 (one perf harness) removes it.
func (c Codec[K]) NewEncoder() Encoder[K] { return Encoder[K]{c: c} }

// Encode is Codec.Encode.
//
// Deprecated: use Codec.Encode; ROADMAP item 1 (one perf harness) removes it.
func (e Encoder[K]) Encode(epoch uint32, stage *core.Basic[K]) ([]byte, error) {
	return e.c.Encode(epoch, stage)
}

// Decoder decodes payloads with the key decoder of the codec that
// made it; it keeps no state.
//
// Deprecated: use Decode; ROADMAP item 1 (one perf harness) removes it.
type Decoder[K flowkey.Key] struct{ decode KeyDecoder[K] }

// shimMaxBuckets bounds the stages a Decoder rebuilds, which knows no
// receiver geometry: 2^24 buckets, a little over the largest sketch
// netwide's frames could carry whole (256 MB of raw buckets holds
// 12.8M five-tuple buckets).
const shimMaxBuckets = 1 << 24

// NewDecoder returns a Decoder using the key decoder Full or
// Compressed was given.
//
// Deprecated: use Decode; ROADMAP item 1 (one perf harness) removes it.
func (c Codec[K]) NewDecoder() Decoder[K] { return Decoder[K]{decode: c.decode} }

// Decode is Decode with the shrink dropped and stages bounded by
// 2^24 buckets; agent is ignored.
//
// Deprecated: use Decode; ROADMAP item 1 (one perf harness) removes it.
func (d Decoder[K]) Decode(agent uint16, epoch uint32, payload []byte) (*core.Basic[K], error) {
	if d.decode == nil {
		return nil, fmt.Errorf("report: decoder of a codec built without a key decoder")
	}
	stage, _, err := Decode(epoch, payload, shimMaxBuckets, d.decode)
	return stage, err
}

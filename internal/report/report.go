// Package report implements the epoch-report codec of the bandwidth-
// frugal network-wide plane: the encoding between a netwide.Agent
// sealing measurement epochs and the collector merging them (DESIGN.md
// §14 specifies the CRPT v3 wire format byte by byte).
//
// There is one codec, parameterized by a shrink factor. It combines two
// ideas from the sketch literature:
//
//   - an SF-sketch-style two-stage split: the fat epoch sketch stays on
//     the agent, and only a stage shrunk to 1/shrink of its buckets per
//     array ships (shrink 1 ships the fat sketch itself, losslessly);
//   - an invertible decode: every occupied bucket of a CocoSketch stage
//     holds a key that hashes to it, so a payload lists each distinct
//     key once, sorted and shared-prefix coded, with a mask of the
//     arrays it occupies and one counter per occupied array, and the
//     decoder re-hashes each key to find its buckets. No bucket
//     position goes on the wire.
//
// Encode and Decode are pure functions of (epoch, stage) and of the
// payload: neither end keeps state between reports, so a retry, a lost
// acknowledgement or a restarted collector needs no resynchronization.
// The decoded stage is the sealed stage bit for bit (core.Basic.Equal
// holds, RNG state included).
package report

import (
	"errors"
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
)

// ErrCorrupt reports a payload that fails structural validation:
// truncated or unknown header, malformed varint, an unsorted,
// duplicate or colliding key, a bad occupancy mask, a zero or
// overflowing counter, trailing bytes or a mass mismatch.
var ErrCorrupt = errors.New("report: corrupt payload")

// GeometryAlign is the bucket-count alignment AlignConfig rounds to.
// Any power-of-two shrink factor up to this value divides an aligned
// geometry, so every -report-shrink a deployment can ask for is valid.
const GeometryAlign = 64

// AlignConfig rounds cfg.BucketsPerArray down to a multiple of
// GeometryAlign so stage extraction (repeated halvings) works for any
// power-of-two shrink ≤ GeometryAlign. Memory-derived geometries
// (core.ConfigForMemory) land on arbitrary bucket counts; the agents
// and the collector must apply the same rounding for their fat
// geometries to agree, which is why the cocoagent and cococollector
// binaries always call this. Geometries smaller than GeometryAlign
// buckets per array are returned unchanged (New rejects them
// explicitly if the shrink factor does not divide them).
func AlignConfig(cfg core.Config) core.Config {
	if cfg.BucketsPerArray >= GeometryAlign {
		cfg.BucketsPerArray -= cfg.BucketsPerArray % GeometryAlign
	}
	return cfg
}

// Codec is the report codec at one shrink factor: Seal cuts the stage
// an agent ships from its fat epoch sketch, and Encode writes it as a
// CRPT v3 payload. A Codec is an immutable value, safe to share.
type Codec[K flowkey.Key] struct {
	shrink int
	// decode parses keys for the deprecated NewDecoder; only Full and
	// Compressed set it.
	decode KeyDecoder[K]
}

// New returns the codec that ships stages of sketches of geometry cfg
// at 1/shrink of their buckets per array. shrink must be a power of
// two dividing cfg.BucketsPerArray (AlignConfig makes every shrink up
// to GeometryAlign divide); shrink 1 ships the epoch sketch itself.
func New[K flowkey.Key](cfg core.Config, shrink int) (Codec[K], error) {
	if shrink >= 1 && cfg.BucketsPerArray%shrink != 0 {
		return Codec[K]{}, fmt.Errorf("report: shrink factor %d does not divide %d buckets per array", shrink, cfg.BucketsPerArray)
	}
	if _, err := headerShrink(sketch.KeySize[K](), cfg.Arrays, cfg.BucketsPerArray/max(shrink, 1), shrink); err != nil {
		return Codec[K]{}, err
	}
	return Codec[K]{shrink: shrink}, nil
}

// Seal converts the fat epoch sketch into the stage that goes on the
// wire: fat itself at shrink 1, otherwise a deep copy compressed to
// 1/shrink of the buckets per array (core.ExtractStage), which leaves
// fat untouched so the agent can keep it for local full-resolution
// queries. An error means fat's geometry cannot produce the stage; it
// depends on the geometry alone, so one trial seal vets a codec for
// every epoch (netwide.Agent.SetCodec).
func (c Codec[K]) Seal(fat *core.Basic[K]) (*core.Basic[K], error) {
	if c.shrink == 1 {
		return fat, nil
	}
	return fat.ExtractStage(c.shrink)
}

// Encode returns the CRPT v3 payload of a stage this codec sealed, as
// epoch: Encode(epoch, stage, shrink) at the codec's shrink.
func (c Codec[K]) Encode(epoch uint32, stage *core.Basic[K]) ([]byte, error) {
	return Encode(epoch, stage, c.shrink)
}

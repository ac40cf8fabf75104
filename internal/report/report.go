// Package report implements the epoch-report codecs of the bandwidth-
// frugal network-wide plane: the pluggable encoding layer between a
// netwide.Agent sealing measurement epochs and the collector merging
// them (DESIGN.md §14 specifies the wire format byte by byte).
//
// Two codecs are provided:
//
//   - Full ships the whole epoch sketch as a core MarshalBinary
//     snapshot — today's compatible default, bit-identical to the
//     pre-codec wire format.
//   - Compressed is the bandwidth-frugal path, combining three ideas
//     from the sketch literature: an SF-sketch-style two-stage split
//     (the fat stage stays on the agent, only a shrunken small stage
//     ships), delta encoding against the previous acknowledged epoch
//     (stable bucket keys are referenced, not re-sent, and their
//     counters are zigzag-varint deltas), and an invertible decode (a
//     per-epoch key dictionary plus re-hashing lets the collector
//     rebuild the stage positionally and verify every key lands in a
//     bucket it actually hashes to).
//
// Codecs are deliberately stateful at the edges: an Encoder tracks the
// last stage the collector acknowledged (the delta base), a Decoder
// tracks the same per agent. The two stay in lockstep because an agent
// only advances its base on a clean acknowledgement and falls back to
// a self-contained report after any transport error (Encoder.Reset) —
// so a lost acknowledgement, a retry, or a collector that lost state
// can never make a delta undecodable for more than one exchange. A
// base checksum in every delta header turns any residual divergence
// into an explicit ErrBaseMismatch instead of silent corruption.
//
// Neither Encoder nor Decoder is safe for concurrent use; netwide
// drives the Encoder from the agent's single reporting goroutine and
// the Decoder under the collector's ingest lock.
package report

import (
	"errors"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
)

// ErrBaseMismatch reports a delta payload whose base epoch or base
// checksum does not match the decoder's last acknowledged stage for
// that agent. The sender recovers by resetting its encoder (the next
// report is self-contained); the collector surfaces the error so the
// connection is torn down and retried.
var ErrBaseMismatch = errors.New("report: delta base does not match last acknowledged stage")

// ErrCorrupt reports a payload that fails structural validation:
// truncated header, malformed varint, out-of-range bucket index or
// dictionary reference, counter overflow, checksum or mass mismatch.
var ErrCorrupt = errors.New("report: corrupt payload")

// GeometryAlign is the bucket-count alignment AlignConfig rounds to.
// Any power-of-two shrink factor up to this value divides an aligned
// geometry, so every -report-shrink a deployment can ask for is valid.
const GeometryAlign = 64

// AlignConfig rounds cfg.BucketsPerArray down to a multiple of
// GeometryAlign so the compressed codec's stage extraction (repeated
// halvings) works for any power-of-two shrink ≤ GeometryAlign.
// Memory-derived geometries (core.ConfigForMemory) land on arbitrary
// bucket counts; both the agent and the collector must apply the same
// rounding for their fat geometries to agree, which is why the
// cocoagent and cococollector binaries call this whenever
// -report-codec=compressed. Geometries smaller than GeometryAlign
// buckets per array are returned unchanged (Compressed rejects them
// explicitly if the shrink factor does not divide them).
func AlignConfig(cfg core.Config) core.Config {
	if cfg.BucketsPerArray >= GeometryAlign {
		cfg.BucketsPerArray -= cfg.BucketsPerArray % GeometryAlign
	}
	return cfg
}

// Codec builds the per-session encoder and decoder pair for one report
// format. Implementations are immutable and safe to share; all mutable
// state lives in the Encoder/Decoder instances they hand out.
type Codec[K flowkey.Key] interface {
	// Name identifies the codec ("full", "compressed") in flags and
	// telemetry.
	Name() string
	// Seal converts the fat epoch sketch into the stage that will go
	// on the wire: the identity for Full, a compressed deep copy
	// (core.ExtractStage) for Compressed. The fat sketch is never
	// mutated, so the agent can keep it for local full-resolution
	// queries. An error means the sketch's geometry cannot produce
	// the configured stage; it depends on the geometry alone, so one
	// trial seal vets a codec for every epoch (netwide.Agent.SetCodec).
	Seal(fat *core.Basic[K]) (*core.Basic[K], error)
	// NewEncoder returns fresh agent-side encoder state.
	NewEncoder() Encoder[K]
	// NewDecoder returns fresh collector-side decoder state.
	NewDecoder() Decoder[K]
}

// Encoder serializes sealed stages for the wire, one report exchange
// at a time. Call Encode to produce a payload, then exactly one of Ack
// (the collector acknowledged it — the stage becomes the next delta
// base) or Reset (the exchange failed in any way — the next Encode is
// self-contained). Not safe for concurrent use.
type Encoder[K flowkey.Key] interface {
	// Encode returns the wire payload for stage, sealed as the given
	// epoch, delta-encoded against the last acknowledged stage when
	// one is available.
	Encode(epoch uint32, stage *core.Basic[K]) ([]byte, error)
	// Ack commits stage as the delta base after the collector
	// acknowledged epoch. The encoder retains the stage; callers must
	// not mutate it afterwards.
	Ack(epoch uint32, stage *core.Basic[K])
	// Reset drops the delta base so the next Encode is
	// self-contained. Called after any failed exchange: it is the
	// invariant that keeps encoder and decoder bases in lockstep
	// without a resynchronization protocol.
	Reset()
}

// Decoder reconstructs reported stages on the collector, tracking the
// per-agent delta base. Not safe for concurrent use; netwide calls it
// under the collector's ingest lock.
type Decoder[K flowkey.Key] interface {
	// Decode parses one report payload from the given agent, sealed
	// as the given epoch, and returns the reconstructed stage — ready
	// to merge into the epoch aggregate with core.Merge. On success
	// the decoder retains its own private copy of the stage as the
	// agent's next delta base, so the caller may freely mutate the
	// returned sketch.
	Decode(agent uint16, epoch uint32, payload []byte) (*core.Basic[K], error)
}

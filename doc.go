// Package cocosketch is a from-scratch Go reproduction of "CocoSketch:
// High-Performance Sketch-based Measurement over Arbitrary Partial Key
// Query" (SIGCOMM 2021): one sketch over a declared full key answers
// flow-size queries for any partial key — any field subset, any prefix
// — with unbiased, variance-bounded estimates.
//
// Start with README.md (install, quickstart, layout), DESIGN.md (system
// inventory, per-experiment index, substitutions for hardware/trace
// dependencies) and EXPERIMENTS.md (paper vs measured for every table
// and figure). The root package carries the benchmark harness
// (bench_test.go): one testing.B benchmark per paper artifact plus the
// ablations.
//
// Library entry points:
//
//   - internal/core — the CocoSketch algorithm (basic and
//     hardware-friendly), plus merge, compress and serialize;
//   - internal/flowkey, internal/query — the partial-key model and the
//     aggregation/SQL front-end;
//   - internal/experiments — the evaluation runners behind
//     cmd/cocobench.
package cocosketch

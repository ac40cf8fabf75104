package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/metrics"
	"cocosketch/internal/oracle"
	"cocosketch/internal/tasks"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// params is one invocation: which inputs to generate and how much
// fixed work to do.
type params struct {
	seed uint64
	// seconds sets the fixed work of the run: each workload turns it
	// into an epoch count or a schedule length through constants
	// calibrated so one second of work is about one second on a
	// two-core host. A faster build finishes the same work sooner; it
	// never does more of it.
	seconds int
	// scale shrinks packet counts, sketch sizes and work for the smoke
	// test (1 in real runs).
	scale float64
	// rec is nil in the untraced run; ledger receives the stage
	// ledger's spans in the traced run.
	rec, ledger *recorder
	// reg collects the program's own counters in the traced run; nil
	// (telemetry.Disabled) otherwise.
	reg *telemetry.Registry
}

func (p params) traced() bool { return p.rec != nil }

// scaled returns max(lo, round(n·scale)).
func (p params) scaled(n int, lo int) int {
	return max(lo, int(math.Round(float64(n)*p.scale)))
}

// minMemBytes is the smallest sketch a scaled-down run builds.
const minMemBytes = 64 << 10

// outcome is what a workload reports: the checks it ran, its metrics
// and the fingerprint of the inputs it generated.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layers            map[string]float64
	inputs            uint64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

// check counts one attempted operation or correctness check, and a
// failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// note records a human-readable line printed with the metrics.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets up; setup_s is the median, so
// one slow repetition (a page-cache miss, a neighbour's burst) does not
// move it.
const setupReps = 3

// repeatSetup runs setup setupReps times and keeps the last result,
// releasing each earlier one before the next starts. setup reports
// its own duration so that the heap measurements it takes between
// phases stay out of the timing. Returns the median duration in
// seconds.
func repeatSetup[T any](setup func() (T, time.Duration, error), release func(T)) (T, float64, error) {
	var (
		cur  T
		have bool
		secs []float64
	)
	for i := 0; i < setupReps; i++ {
		if have {
			release(cur)
			var zero T
			cur, have = zero, false
		}
		runtime.GC()
		v, d, err := setup()
		if err != nil {
			return cur, 0, err
		}
		cur, have = v, true
		secs = append(secs, d.Seconds())
	}
	// Collect set-up's garbage but keep its pages. Returned to the OS
	// (debug.FreeOSMemory), they are faulted back in by every allocation
	// until the next collection: on a two-core host that made the first
	// 26 netwide epochs a third slower than the rest, enough to set the
	// run's p90.
	runtime.GC()
	return cur, metrics.Percentile(secs, 50), nil
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retainedMB is the live heap now minus the baseline taken after the
// inputs were generated and before the system under test was built:
// the state the system holds, in MB.
func retainedMB(base uint64) float64 {
	return (float64(liveHeap()) - float64(base)) / (1 << 20)
}

// runtimeWindow brackets the measured phase to charge allocations and
// collections to it.
type runtimeWindow struct{ before runtime.MemStats }

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish records the allocation and GC per-layer metrics for a
// measured phase that ingested packets packets.
func (w *runtimeWindow) finish(o *outcome, packets uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.layers["shard.allocs_per_pkt"] = float64(after.Mallocs-w.before.Mallocs) / float64(packets)
	o.layers["shard.bytes_per_pkt"] = float64(after.TotalAlloc-w.before.TotalAlloc) / float64(packets)
	o.layers["runtime.alloc_mb"] = float64(after.TotalAlloc-w.before.TotalAlloc) / (1 << 20)
	o.layers["runtime.gc_cycles"] = float64(after.NumGC - w.before.NumGC)
}

// hhScore scores heavy-hitter answers against exact ground truth: for
// each partial key of oracle.Masks(), the flows at or above
// tasks.DefaultThresholdFraction of the traffic, F1 of the reported
// set and average relative error over the true set, both averaged
// over the masks. estimate returns the estimated partial-key table for
// a mask.
func hhScore(truth *oracle.Oracle, estimate func(flowkey.Mask) (map[flowkey.FiveTuple]uint64, error)) (f1, are float64, err error) {
	masks := oracle.Masks()
	threshold := tasks.Threshold(truth.Total(), tasks.DefaultThresholdFraction)
	for _, m := range masks {
		est, err := estimate(m)
		if err != nil {
			return 0, 0, fmt.Errorf("estimating %s: %w", m, err)
		}
		want := truth.HeavyHitters(m, tasks.DefaultThresholdFraction)
		got := tasks.HeavyHitters(est, threshold)
		f1 += metrics.Compare(want, got).F1
		are += metrics.ARE(want, func(k flowkey.FiveTuple) uint64 { return est[k] })
	}
	n := float64(len(masks))
	return f1 / n, are / n, nil
}

// checkAccuracy records hh_f1 and hh_are and checks F1 against the
// workload's floor.
func (o *outcome) checkAccuracy(truth *oracle.Oracle, floor float64, estimate func(flowkey.Mask) (map[flowkey.FiveTuple]uint64, error)) {
	f1, are, err := hhScore(truth, estimate)
	o.check(err == nil, "heavy-hitter query: %v", err)
	o.check(f1 >= floor, "hh_f1 %.4f below floor %.4f", f1, floor)
	o.e2e["hh_f1"] = f1
	o.note("hh_are %g", are)
}

// encodePCAP renders a trace as the 64-byte-snaplen Ethernet capture
// every workload replays.
func encodePCAP(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf, snapLen); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", tr.Name, err)
	}
	return buf.Bytes(), nil
}

// snapLen is the capture length of every generated frame: the smallest
// Ethernet frame, where per-packet cost dominates. Larger frames are
// out of scope: in-memory captures would reach gigabytes.
const snapLen = 64

// splitTrace cuts tr into n consecutive traces of equal length.
func splitTrace(tr *trace.Trace, n int) []*trace.Trace {
	per := len(tr.Packets) / n
	out := make([]*trace.Trace, n)
	for i := range out {
		out[i] = &trace.Trace{
			Name:    fmt.Sprintf("%s/%d", tr.Name, i),
			Packets: tr.Packets[i*per : (i+1)*per],
		}
	}
	return out
}

// windowTruth is the exact ground truth of the epochs in [from, to),
// where epoch e replays slice e mod len(perSlice) of every agent.
func windowTruth(perSlice [][]*trace.Trace, from, to int) *oracle.Oracle {
	counts := make(map[flowkey.FiveTuple]uint64)
	for e := from; e < to; e++ {
		for _, agent := range perSlice {
			tr := agent[e%len(agent)]
			for i := range tr.Packets {
				counts[tr.Packets[i].Key]++
			}
		}
	}
	return oracle.FromCounts(fmt.Sprintf("epochs %d:%d", from, to), counts)
}

// fingerprint hashes the generated captures, so a run's output names
// exactly which inputs it measured.
func fingerprint(pcaps ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range pcaps {
		h.Write(p)
	}
	return h.Sum64()
}

// quantiles returns the p50 and p90 of samples.
func quantiles(samples []float64) (p50, p90 float64) {
	return metrics.Percentile(samples, 50), metrics.Percentile(samples, 90)
}

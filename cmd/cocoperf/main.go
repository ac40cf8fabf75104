// Command cocoperf is the repository's benchmark: it runs one named
// workload from a seed through the system's public API, times the
// calls from outside, checks that the answers are correct, and prints
// every metric by name with its unit. BENCHMARK.json at the repository
// root declares the workloads, the metrics and their regression
// bounds; cocoperf's output matches it name for name (the smoke test in
// this directory enforces that).
//
// Usage (from the repository root):
//
//	bash cmd/cocoperf/run.sh -workload ingest-caida-64b -seed 1 [-seconds 15] [-trace 1] [-spans file]
//	cd cmd/cocoperf && go run . -workload query-under-ingest -seed 1
//
// run.sh builds the program from source under .bench_build/ and runs
// it. cmd/cocoperf is a module of its own, so the root module's go
// build and go test leave it alone; run its tests with go test in this
// directory. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the exit status is 1
// when any check failed.
//
// # Load shape
//
// Everything runs in one process with GOMAXPROCS left at the number of
// CPUs. A workload opens at most two TCP connections of load, over
// loopback, and every replay uses one receive queue (one reader and
// one worker goroutine). Runs do fixed work, not a fixed duration:
// -seconds becomes an epoch count or a schedule length through
// constants calibrated on a two-core host, so a faster build finishes
// the same work sooner instead of retaining more state. Inputs are
// generated from -seed; the same seed gives the same inputs and the
// same accuracy and wire numbers. Every frame is 64 bytes.
//
// # Workloads
//
//   - ingest-caida-64b (closed loop, maximum rate): a CAIDA-like trace
//     of 2M packets replayed as whole epochs through
//     shard.ReplayPCAPBasic into a basic d=2 sketch of 500 KB. The
//     sketch fits in L2, so per-packet CPU (pcap read, extract, hash,
//     update) dominates: hash-once and branch-minimal insert changes
//     show here. Report, netwide and window are bypassed.
//   - ingest-mawi-16mb (closed loop, maximum rate): a MAWI-like trace
//     (flatter skew, 200k flows) into a 16 MB sketch, several times L2,
//     so bucket cache misses dominate. A prefetch or batch-ordering
//     change shows here; a hashing-only change mostly should not.
//   - netwide-small-epochs (closed loop in lockstep, maximum rate): two
//     agents, each sampling 1.6M packets from one shared CAIDA-like
//     population (so their flows overlap), cut into 200k-packet epochs.
//     Per epoch the agents in turn replay, Absorb, EndEpoch and Flush
//     over loopback TCP with the compressed codec at shrink 8 (one
//     replay at a time: one reader and one worker goroutine on two
//     cores); once both are acknowledged the sealer calls SealEpochInto
//     on a window ring of 16 epochs, and only then does the next epoch
//     start. Many small epochs put the per-epoch fixed costs (codec
//     seal, encode and decode, cross-agent fold, clone, Ring.Seal) on
//     the critical path, and the collector's unpruned epoch maps grow
//     with the epoch count. This is the write side of the window tier.
//   - query-under-ingest (open loop): one agent with the full codec and
//     a 128 KB sketch, paced at one 100k-packet epoch every 250 ms
//     (0.4 Mpps offered), into a ring of 16 epochs; one keep-alive HTTP
//     client sends GET /query?limit=10 on a fixed schedule of 100
//     requests/s. Two requests in three are the SrcIP dashboard query
//     over range=* (cache hits after the first per seal); the third
//     takes a random mask of oracle.Masks() over a random explicit range
//     of at least two epochs inside the retained bounds (mostly cache
//     misses: the merge path). This is the read side of the window
//     tier: query engine, merge, cache and HTTP under modest ingest.
//     Latency is timed from each request's due time, so a stall is
//     charged to every request queued behind it. The run is reported
//     invalid (a plain line; the checks still decide the exit status)
//     if the client's send lag p99 exceeds the 50 ms latency limit, so
//     that a growing backlog and not the offered rate was measured, or
//     if the paced ingest fell an epoch behind. The rate and sketch size
//     are set so a merge-path request (about 6 ms here) finishes before
//     the next is due: the median then measures the cached path and
//     the p90 the merge path.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric, with tracing off:
//
//   - setup_s: the median of three set-ups (input generation, pcap
//     encoding, ground-truth precompute, boot, and the untimed warm-up
//     or ring-filling epochs).
//   - ingest_mpps: the median per-epoch rate for the ingest workloads;
//     packets sealed into the ring per second for netwide; the achieved
//     paced rate for query.
//   - latency_p50_ms, latency_p90_ms: the latency of the workload's unit
//     of work. Ingest: one epoch, from its capture being complete to its
//     sketch being returned. Netwide: one epoch, from the later agent's
//     EndEpoch returning to SealEpochInto returning. Query: one request,
//     from its due time to its response being read. The tail is p90,
//     not p99: runs hold 40 to 3000 samples on a host whose neighbours
//     add stalls, and p99 did not repeat within its bound.
//   - hh_f1: heavy hitters at tasks.DefaultThresholdFraction against
//     exact oracle ground truth, F1 averaged over oracle.Masks(); over
//     the last epoch's sketch for ingest, over the ring's last 16 epochs
//     otherwise. Below the workload's floor the run fails. The average
//     relative error is printed as hh_are but not gated: across seeds
//     it varies by more than any usable bound.
//   - wire_kb_per_epoch: bytes the agents wrote per agent-epoch; for the
//     ingest workloads, which ship nothing, what a full-snapshot report
//     of the epoch would cost.
//   - retained_heap_mb: the live heap after a collection at the end,
//     minus the same after the inputs were generated, so inputs are
//     excluded and the system's state is not.
//
// Correctness is checked in every workload and counted in failed:
// every replay feeds exactly the packets it was given and the sketch's
// SumValues equals them; every sealed epoch's mass equals the packets
// fed into it; the windowed total equals the packets of the window's
// epochs; hh_f1 stays above the floor; and in query-under-ingest every
// 100th response's rows equal Ring.Top over the [from, to) the response
// resolved. Failed requests, non-200 responses, Flush and seal errors
// count as failures too.
//
// # Per-layer metrics
//
// -trace 1 runs the same workload with the program's telemetry
// registries enabled and spans recorded in memory around every call
// into a layer, then writes the spans to -spans and prints the
// per-layer metrics as well. A span has a name, start, end, parent and
// the epoch or request number as id; a layer's time is its span's self
// time, its duration minus what its child spans cover. Stages hidden
// inside one public call get a stage ledger, run after the measured
// phase and only in the traced run: each stage's public function timed
// alone over the workload's first epoch input, plus a probe pipeline
// for the layers the workload bypasses (see ledger.go). Each layer
// metric, and the end-to-end metric and workload it should move:
//
//   - pcap.read_ns_per_pkt, packet.extract_ns_per_pkt,
//     ovs.ring_ns_per_pkt, flowkey.rss_ns_per_pkt,
//     flowkey.hash_ns_per_pkt → ingest_mpps on ingest-caida-64b
//     (hashing diluted on ingest-mawi-16mb).
//   - core.insert_ns_per_pkt, core.replace_ratio (replaced over
//     matched+replaced+kept: the share leaving the match fast path) →
//     ingest_mpps on ingest-mawi-16mb.
//   - shard.replay_ms, shard.allocs_per_pkt, shard.bytes_per_pkt,
//     shard.starved → ingest_mpps on both ingest workloads.
//   - core.merge_ms, core.decode_ms, netwide.absorb_us,
//     netwide.end_epoch_us, netwide.flush_us, netwide.fold_us (the
//     SealEpochInto span minus its Ring.Seal child), window.seal_us,
//     netwide.epochs_held → latency_p90_ms and retained_heap_mb on
//     netwide-small-epochs.
//   - report.encode_us, report.decode_us, report.ratio (full-snapshot
//     bytes over wire bytes) → wire_kb_per_epoch and latency_p50_ms on
//     netwide-small-epochs.
//   - window.handler_p50_us, window.handler_p99_us,
//     window.cache_hit_ratio, http.overhead_p50_us (client round trip
//     minus handler time) → latency_p50_ms and latency_p90_ms on
//     query-under-ingest.
//   - runtime.gc_cycles, runtime.alloc_mb → latency_p90_ms on
//     query-under-ingest and netwide-small-epochs.
//   - trace.ingest_mpps, trace.latency_p50_ms: the end-to-end numbers
//     as measured in the traced run; the tracing overhead is their
//     difference from the untraced run of the same seed.
//
// The query workload also prints its open-loop validity checks
// (loadgen.lag_p99_ms, loadgen.epochs_behind_max), its p99 latency
// against the 50 ms limit and its epoch visibility as plain lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"cocosketch/internal/telemetry"
)

// metricDef is one reported metric and its unit, as in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of the untraced and the traced
// run, in print order.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"ingest_mpps", "Mpps"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"hh_f1", "ratio"},
		{"wire_kb_per_epoch", "KB"},
		{"retained_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"pcap.read_ns_per_pkt", "ns"},
		{"packet.extract_ns_per_pkt", "ns"},
		{"ovs.ring_ns_per_pkt", "ns"},
		{"flowkey.rss_ns_per_pkt", "ns"},
		{"flowkey.hash_ns_per_pkt", "ns"},
		{"core.insert_ns_per_pkt", "ns"},
		{"core.replace_ratio", "ratio"},
		{"core.merge_ms", "ms"},
		{"core.decode_ms", "ms"},
		{"shard.replay_ms", "ms"},
		{"shard.allocs_per_pkt", "count"},
		{"shard.bytes_per_pkt", "B"},
		{"shard.starved", "count"},
		{"report.encode_us", "us"},
		{"report.decode_us", "us"},
		{"report.ratio", "ratio"},
		{"netwide.absorb_us", "us"},
		{"netwide.end_epoch_us", "us"},
		{"netwide.flush_us", "us"},
		{"netwide.fold_us", "us"},
		{"netwide.epochs_held", "count"},
		{"window.seal_us", "us"},
		{"window.handler_p50_us", "us"},
		{"window.handler_p99_us", "us"},
		{"window.cache_hit_ratio", "ratio"},
		{"http.overhead_p50_us", "us"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_mb", "MB"},
		{"trace.ingest_mpps", "Mpps"},
		{"trace.latency_p50_ms", "ms"},
	}
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*outcome, error){
	"ingest-caida-64b":     func(p params) (*outcome, error) { return runIngest(ingestCAIDA, p) },
	"ingest-mawi-16mb":     func(p params) (*outcome, error) { return runIngest(ingestMAWI, p) },
	"netwide-small-epochs": runNetwide,
	"query-under-ingest":   runQuery,
}

// runLimit bounds one run; a run still going then is hung, and is
// reported as such rather than left for the caller to kill.
const runLimit = 170 * time.Second

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "cocoperf: run exceeded %s\n", runLimit)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation and returns the exit status: 0 when
// every check passed, 1 when one failed or the run could not complete,
// 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocoperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 15, "fixed work, in seconds of the calibrated schedule")
	traceFlag := fs.Int("trace", 0, "1 records spans and puts the per-layer metrics, not the end-to-end ones, in the result line")
	spansPath := fs.String("spans", "cocoperf.spans.json", "file the traced run writes its spans to")
	scale := fs.Float64("scale", 1, "fraction of the packet counts and work to run (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "cocoperf: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "cocoperf: -seconds must be at least 1\n")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "cocoperf: -trace must be 0 or 1\n")
		return 2
	case !(*scale > 0 && *scale <= 1):
		fmt.Fprintf(stderr, "cocoperf: -scale must be in (0, 1]\n")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, scale: *scale}
	if *traceFlag == 1 {
		p.rec, p.ledger, p.reg = newRecorder(), newRecorder(), telemetry.New()
	}
	fmt.Fprintf(stdout, "cocoperf workload=%s seed=%d seconds=%d trace=%d scale=%g nproc=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *traceFlag, *scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	o, err := wl(p)
	if o == nil {
		fmt.Fprintf(stderr, "cocoperf: %s: %v\n", *name, err)
		return 1
	}
	if err != nil {
		o.check(false, "%v", err)
	}
	if p.traced() {
		if err := saveSpans(*spansPath, spanFile{Workload: *name, Seed: *seed, Run: p.rec.snapshot(), Ledger: p.ledger.snapshot()}); err != nil {
			o.check(false, "%v", err)
		}
	}

	fmt.Fprintf(stdout, "inputs fnv64=%016x\n", o.inputs)
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	res := result{Metrics: make(map[string]metricValue)}
	emit := func(defs []metricDef, vals map[string]float64, inJSON bool) {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				o.check(false, "workload did not report %s", d.name)
				continue
			}
			fmt.Fprintf(stdout, "metric %s %g %s\n", d.name, v, d.unit)
			if inJSON {
				res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	emit(endToEnd, o.e2e, !p.traced())
	if p.traced() {
		emit(perLayer, o.layers, true)
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0 && o.attempted > 0
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "cocoperf: check failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cocoperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func saveSpans(path string, f spanFile) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := writeSpans(out, f); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

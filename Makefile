GO ?= go

.PHONY: build test race chaos bench bench-insert bench-ring bench-smoke bench-alloc bench-report bench-query fuzz fmt docs clean cover verify-stats

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run, so accidental
# inter-test coupling fails loudly instead of riding on file order.
# cmd/cocoperf is a module of its own, outside the root ./..., so its
# tests run as a second step.
test:
	$(GO) test -shuffle=on ./...
	cd cmd/cocoperf && $(GO) test -shuffle=on ./...

# Race-check the concurrent packages (SPSC ring, sharded ingest
# workers and pooled replay, network-wide merge workers, query
# front-end against a live sealing loop, telemetry instruments) and the
# cocoagent/cococollector binaries (their tests run agents, flaky
# proxies and collectors concurrently in one process: the only
# end-to-end checks of the two delivery loops), then the replay tests
# ten more times (the reader/worker park handshake is cross-goroutine
# state every replay exercises), then the seeded chaos suite
# (deterministic fault injection exercises the agent/collector
# concurrency paths hardest).
race:
	$(GO) test -race -shuffle=on ./internal/ovs/... ./internal/core/... ./internal/netwide/... ./internal/shard/... ./internal/query/... ./internal/window/... ./internal/telemetry/... ./internal/packet/... ./internal/pcap/... ./cmd/cocoagent/ ./cmd/cococollector/
	$(GO) test -race -count=10 -run 'Replay' ./internal/shard/
	$(MAKE) chaos

# Seeded chaos simulation: the faultnet scenarios (latency, drops,
# partial writes, resets, bandwidth caps, partitions) and the
# differential chaos gates against the exact oracle, all under the race
# detector with shuffled test order. Every fault schedule derives from
# a fixed seed, so a pass here is reproducible, not lucky.
chaos:
	$(GO) test -race -count=1 -shuffle=on -run 'Chaos' ./internal/netwide/ ./internal/oracle/

# Documentation gate: go vet plus the doc-comment linter (fails on any
# package or exported identifier missing a doc comment).
docs:
	$(GO) vet ./...
	$(GO) run ./internal/tools/doclint .

# Hot-path microbenchmarks: single vs batched insert for both sketch
# variants, plus hashing.
bench-insert:
	$(GO) test -run '^$$' -bench 'BenchmarkInsertCoco' -benchmem .
	$(GO) test -run '^$$' -bench 'Wide|HashSeeds' -benchmem ./internal/hash/ ./internal/flowkey/

# Ring transfer microbenchmarks: uncached vs cached indices, single vs
# batch operations.
bench-ring:
	$(GO) test -run '^$$' -bench 'BenchmarkRingSPSC' ./internal/ovs/

# Telemetry overhead gate: instrumented vs disabled batched insert must
# stay within the budget (min-of-counts rejects CI host noise; see
# internal/tools/benchsmoke). The test binary is built once and run six
# times with -count 1, so the telemetry-off and telemetry-on runs
# alternate: with -count 6 every off run came before every on run, and
# host drift over the run decided the ratio.
bench-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) test -c -o "$$tmp/bench.test" . && \
		for i in 1 2 3 4 5 6; do \
			"$$tmp/bench.test" -test.run '^$$' -test.bench 'BenchmarkInsertBatch/' -test.count 1 -test.benchtime 1s; \
		done | $(GO) run ./internal/tools/benchsmoke -max 1.05

# Zero-allocation ingest gates (DESIGN.md §13): every AllocsPerRun test
# on the replay→decode→InsertBatch path must report zero, and the
# 4-queue pooled replay must beat the 1-queue run by the speedup floor.
# The speedup is a physical-core fact, so benchsmoke -need-cpus skips
# the ratio gate (tests still run) on hosts below 4 CPUs.
bench-alloc:
	$(GO) test -run 'NoAllocs|TestBuildSingleAllocation' -count=1 -v \
		./internal/packet/ ./internal/pcap/ ./internal/flowkey/ ./internal/core/ ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkReplayQueues/' -count 4 -benchtime 5x ./internal/shard/ \
		| $(GO) run ./internal/tools/benchsmoke -off queues-1 -on queues-4 -max 0 -min 1.8 -need-cpus 4

# Report compression gates (DESIGN.md §14): at the harness geometry a
# shrink-8 report must undercut full snapshots by at least 5× on wire
# bytes, and decoding it must not be slower than rebuilding the fat
# sketch from the full snapshot it replaces, raw key and counter
# buckets parsed by the benchmark (measured ≈4× faster; min-of-counts
# rejects CI host noise, see internal/tools/benchsmoke).
bench-report:
	$(GO) test -run 'TestCompressionRatioFloor' -count=1 -v ./internal/report/
	$(GO) test -run '^$$' -bench 'BenchmarkReportDecode/' -count 4 ./internal/report/ \
		| $(GO) run ./internal/tools/benchsmoke -off decode-full -on decode-compressed -max 0 -min 1.0

# Continuous query-serving gates (DESIGN.md §16): a sealer drives the
# window ring at line rate while query readers hammer the windowed API;
# the run must sustain ≥10k queries/s, keep ingest above its floor, and
# hold the result-cache hit ratio — all enforced inside the env-gated
# test. The microbenchmarks report the cached/uncached split behind the
# gate and the uncached top-10 (Threshold Algorithm) against SQL's full
# sum and sort.
bench-query:
	COCO_QUERY_GATE=1 $(GO) test -run 'TestQueryServingGate' -count=1 -v ./internal/window/
	$(GO) test -run '^$$' -bench 'BenchmarkWindowGroupBy|BenchmarkWindowTop|BenchmarkQueryUnderIngest' -benchmem ./internal/window/

bench: bench-insert bench-ring bench-smoke bench-report bench-query

# Short fuzz passes, the same targets CI's fuzz steps run: every key
# type's field-built HashSeeds must equal the wide hash of its byte
# encoding, every mask the grammar accepts must re-parse from its
# string form, the frame key extractors must never panic and must
# agree with the error-reporting decoder, the pcap reader's views and
# copies must match an io.ReadFull reference over short and
# final-error reads, errors included, a one-queue replay of fuzzed
# frames must build the sketch trace.FromPCAP plus sequential inserts
# builds, the report decoder must reject garbage with ErrCorrupt and
# re-encode whatever it accepts to the same bytes, every window range
# the parser accepts must survive a String() round trip, and the
# window's Top, SQL, GroupBy and Query over fuzzed epochs must equal an
# independent sum of the epochs' tables (each of its inputs runs the
# whole window API, so shrinking a new input one byte at a time is
# capped at 100 runs; uncapped, it took the whole fuzz time).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzHashSeedsMatchesWide -fuzztime 30s ./internal/flowkey/
	$(GO) test -run '^$$' -fuzz FuzzParseMask -fuzztime 15s ./internal/flowkey/
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime 15s ./internal/packet/
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 15s ./internal/pcap/
	$(GO) test -run '^$$' -fuzz FuzzReplayMatchesSequential -fuzztime 15s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 15s ./internal/report/
	$(GO) test -run '^$$' -fuzz FuzzParseRange -fuzztime 15s ./internal/window/
	$(GO) test -run '^$$' -fuzz FuzzWindowTopMatchesSum -fuzztime 15s -fuzzminimizetime 100x ./internal/window/

# Statistical verification: the differential matrix (every sketch
# implementation against the exact oracle, variance-bound CIs), the
# metamorphic invariants (batch/shard/report round trip/merge/telemetry
# equivalences) and the injected-bias negative control that proves the
# matrix has power. The telemetry package is vetted and race-checked
# here because the equivalence tests lean on its concurrent instruments.
verify-stats:
	$(GO) vet ./internal/telemetry/
	$(GO) test -race -count=1 ./internal/telemetry/
	$(GO) test ./internal/oracle/ -run 'TestDifferentialMatrix|TestMetamorphic|TestInjectedBias' -count=1 -v
	$(MAKE) chaos

# Per-package coverage floor. Exempt: demo binaries, the two thin
# network daemons (their libraries are tested directly), build tooling.
cover:
	$(GO) test -cover ./... | $(GO) run ./internal/tools/coverfloor -min 75 \
		-exempt cocosketch/examples/,cocosketch/cmd/cocoagent,cocosketch/cmd/cococollector,cocosketch/internal/tools/

fmt:
	gofmt -l -w .

clean:
	rm -f cocosketch.test BENCH_cocobench.json

GO ?= go

.PHONY: all build vet doclint lint test race bench bench-smoke bench-json fuzz-smoke chaos chaos-smoke ci

all: build vet doclint lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Documentation lint: every internal package carries a package doc
# comment, and the public surfaces of store, tsdb, cache, collect, core
# and transport document every exported symbol (see cmd/doclint).
doclint:
	$(GO) run ./cmd/doclint

# Invariant lint: the repo-specific analyzer suite (atomicmix,
# lockorder, poolescape, batchinsert) that mechanically enforces the
# concurrency and pooling contracts cataloged in docs/ANALYSIS.md.
lint:
	$(GO) run ./cmd/invlint ./...

test:
	$(GO) test ./...

# Race-enabled run over every internal package; the hottest suspects are
# the operator manager/scheduler, the sharded sensor caches, the
# bound-handle/scratch-arena tick path and the tsdb ingest/flush paths.
# The second leg runs the root-package benchmark suite one iteration
# under the race detector: the paired contention workloads exercise
# cross-goroutine interleavings the unit tests cannot reach.
race:
	$(GO) test -race -count=1 ./internal/...
	$(GO) test -race -run '^$$' -bench . -benchtime 1x .

# Short benchmark run: the tick-path contention pairs, the cache view
# micro-benches, the storage backend pairs (in-memory store vs tsdb
# insert/range plus crash recovery), the aggregation pairs (naive
# Range+reduce vs the chunk-metadata engine), concurrent ingest through
# the group-commit WAL (8-32 writers), the dashboard read-path
# pairs (uncached vs result-cached queries, linear vs indexed wildcard
# expansion), the telemetry overhead pairs (instrumented ingest and
# dashboard hot paths with the switch off vs on) and the acked publish
# throughput of the spooled client.
# Full suite: go test -bench=. -benchmem .
bench:
	$(GO) test -run '^$$' -bench 'TickAllContention|QueryContention|CacheView|BackendInsertBatch|BackendRange|TSDBRecovery|StorageRecovery|Aggregate|Downsample|IngestConcurrent|DashboardQuery|WildcardExpand|Telemetry|PublishAcked' -benchtime 10x -benchmem .

# One-iteration smoke over the ENTIRE benchmark suite: every benchmark
# must still compile and execute, so the paired before/after workloads
# cannot bit-rot between the fuller runs. Wired into `make ci`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Machine-readable results for the per-PR perf trajectory: the
# bench_test.go acceptance benchmarks over repeated interleaved rounds,
# median and quartiles per metric, and every acceptance bound as an
# exit-status gate (on-disk bytes per reading < 4, aggregate >=5x faster
# and >=10x fewer allocs than naive Range+reduce, cached dashboard query
# >=5x faster, indexed wildcard expansion 64->4096 topics <=4x, <=2%
# telemetry overhead on the ingest and dashboard hot paths). The answer
# checks (recovered, aggregate, cached and drained answers identical,
# clean spool drain) fail a round.
bench-json:
	$(GO) run ./cmd/benchrunner -bench-json BENCH_PR13.json

# Fixed-time fuzz smoke of the WAL record codec and the broker's publish
# frame decoder: each checked-in seed corpus (testdata/fuzz in the
# package) plus 10s of fresh inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime 10s ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz '^FuzzPublishFrame$$' -fuzztime 10s ./internal/transport/

# Seeded chaos smoke (~10s): the fault-injected end-to-end scenario and
# the integration-tier recovery case, both under the race detector. A
# fixed WINTERMUTE_TEST_SEED keeps CI deterministic; drop the variable to
# explore fresh seeds locally (failures log their replay incantation).
# See docs/TESTING.md for the harness design and verdict format.
chaos-smoke:
	WINTERMUTE_TEST_SEED=42 $(GO) test -race -count=1 \
		-run 'TestScenarioSmoke|TestChaosSmokeRecovery' \
		./internal/chaos/ ./internal/integration/

# Full chaos run: 1000 simulated pushers, 30s of scheduled faults
# (killed connections, torn/stalled/failed fsyncs, disk-full, slow
# readers, OOO floods, clock skew) through at-least-once pushers; the
# verdict requires zero lost readings, period. The verdict is
# merged into the per-PR benchmark artifact under a "chaos" key.
# Pre-merge gate for storage/transport/ingest changes.
chaos:
	$(GO) run ./cmd/chaosrunner -seed 42 -merge BENCH_PR13.json

ci: build vet doclint lint test race bench-smoke bench fuzz-smoke chaos-smoke

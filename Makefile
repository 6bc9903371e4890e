# Local targets mirror .github/workflows/ci.yml step for step, so a green
# `make ci` locally means a green CI run.

GO ?= go

# Coverage floors for the packages the differential/invariance harness
# guards; set to the measured pre-harness baselines so the new tests stay
# load-bearing. Raise them if coverage improves, never lower them.
COVER_FLOOR_QUERIES ?= 98.5
COVER_FLOOR_SSB     ?= 88.0
COVER_FLOOR_FLEET   ?= 90.0
COVER_FLOOR_SCHED   ?= 90.0
COVER_FLOOR_TRACE   ?= 90.0
COVER_FLOOR_SERVE   ?= 97.0
COVER_FLOOR_LOADGEN ?= 90.0
COVER_FLOOR_PLANNER ?= 98.5

# Allocation ceilings for benchmark-smoke, in KB per request at 3 s, seed 1:
# about 1.25x what the commit that set them measures (scan_solo 51, queued_batch
# 13.1, cache_hot 0.17, adhoc_cold 1 294). Allocation per request does not move
# with the box, so a reading above the ceiling is a code change — per-tile or
# per-estimate allocation creeping back into the GPU-family path, per-group
# allocation into the accumulator tables, either into the shared scan, a cache
# hit copying the rows of the answer it shares or passing through the queue
# (a hit is answered on its caller: no job, channel or hand-off), or a cold
# statement building more than one hash table per join (the tables are most of
# adhoc_cold's figure: sized to the full dimension, part's alone is 1-2 MB).
# Lower them when the figures improve, never raise them to make a run pass.
ALLOC_KB_MAX_SCAN_SOLO    ?= 64
ALLOC_KB_MAX_QUEUED_BATCH ?= 16.5
ALLOC_KB_MAX_CACHE_HOT    ?= 0.21
ALLOC_KB_MAX_ADHOC_COLD   ?= 1620

.PHONY: all build test lint fuzz cover docs bench-smoke serve-stress bench-baseline bench-check metrics-smoke load-smoke batch-smoke benchmark-smoke serve ci

# Markdown files the docs gate link-checks, and the packages whose godoc
# must render (a missing or syntactically broken doc comment fails go doc).
DOCS_MD   = README.md docs/ARCHITECTURE.md
DOC_PKGS  = ./internal/pack ./internal/device ./internal/serve ./internal/fleet ./internal/sched ./internal/trace ./internal/loadgen

all: build test

build:
	$(GO) build ./...

# -timeout 30m: the differential/invariance harness in internal/queries
# runs ~1500 engine executions; under -race on a small runner that can
# brush against go test's default 10m per-package limit.
test:
	$(GO) test -race -timeout 30m ./...

# Each fuzz target runs its corpus plus ~20s of new inputs: the dataset
# decoder, the SQL frontend (parse -> canonical print fixed point, bind
# never panics; ORDER BY / LIMIT / multi-aggregate grammar included),
# zone-map pruning (a pruned morsel never contains a matching row), bit
# packing (pack -> unpack equals the plain column), fleet shard assignment
# (no morsel lost, duplicated, or resident beyond device capacity after
# spill accounting), the 64-bit GPU radix sort (output is a stable
# sorted permutation of the input on the masked key bits), and execution
# shapes (Normalize never panics, is idempotent and refuses every unknown
# or out-of-range input; a normalized shape's key decodes back to it).
fuzz:
	$(GO) test ./internal/ssb -run='^$$' -fuzz=FuzzRead -fuzztime=20s
	$(GO) test ./internal/sql -run='^$$' -fuzz=FuzzParse -fuzztime=20s
	$(GO) test ./internal/queries -run='^$$' -fuzz=FuzzZoneMap -fuzztime=20s
	$(GO) test ./internal/queries -run='^$$' -fuzz=FuzzShape -fuzztime=20s
	$(GO) test ./internal/pack -run='^$$' -fuzz=FuzzPackRoundTrip -fuzztime=20s
	$(GO) test ./internal/fleet -run='^$$' -fuzz=FuzzShardAssignment -fuzztime=20s
	$(GO) test ./internal/gpu -run='^$$' -fuzz=FuzzRadixSort -fuzztime=20s

# Docs gate: every relative link in README/docs resolves, and godoc
# renders non-empty for the packages above.
docs:
	$(GO) run ./cmd/docscheck $(DOCS_MD)
	@set -e; for p in $(DOC_PKGS); do \
		out=$$($(GO) doc -all $$p); \
		if [ -z "$$out" ]; then echo "go doc renders empty for $$p"; exit 1; fi; \
		echo "go doc $$p: $$(printf '%s\n' "$$out" | wc -l) lines"; \
	done

cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover "$$1" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		echo "$$1 coverage: $$pct% (floor $$2%)"; \
		awk "BEGIN { exit !($$pct >= $$2) }" || { echo "coverage of $$1 fell below $$2%"; exit 1; }; \
	}; \
	check ./internal/queries $(COVER_FLOOR_QUERIES); \
	check ./internal/ssb $(COVER_FLOOR_SSB); \
	check ./internal/fleet $(COVER_FLOOR_FLEET); \
	check ./internal/sched $(COVER_FLOOR_SCHED); \
	check ./internal/trace $(COVER_FLOOR_TRACE); \
	check ./internal/serve $(COVER_FLOOR_SERVE); \
	check ./internal/loadgen $(COVER_FLOOR_LOADGEN); \
	check ./internal/planner $(COVER_FLOOR_PLANNER)

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# One iteration of every Go benchmark: the end-to-end ones at the root, the
# per-layer scan-kernel, batch-entry and dimension-build benchmarks in
# internal/queries, the placement-choice benchmark in internal/planner, the
# radix sort and partition benchmarks in internal/gpu and internal/cpu, and
# the result-cache hit benchmark in internal/serve.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/queries ./internal/planner ./internal/gpu ./internal/cpu ./internal/serve

# Serving concurrency under the race detector, ten rounds: single-flight
# (leaders, followers, abandoned flights), batch formation, shedding,
# overload, deadlines and a panicking execution — the paths where a caller,
# a worker and a flight hand a request between goroutines.
serve-stress:
	$(GO) test -race -count=10 -run 'SingleFlight|Batch|Shed|Overload|Deadline|Panic' ./internal/serve

# Benchmark gate: bench-baseline records the q1.x flight's simulated
# seconds and scaling efficiency at 1/2/4/8 GPUs into BENCH_fleet.json,
# its cpu/gpu/hybrid placement seconds on both interconnects into
# BENCH_hybrid.json, and top-5 ORDER BY variants per placement into
# BENCH_sort.json; bench-check fails when anything regresses by more
# than 5% (simulated seconds are deterministic, so the tolerance only
# absorbs intentional model changes).
bench-baseline:
	$(GO) run ./cmd/benchgate -write

bench-check:
	$(GO) run ./cmd/benchgate -check

# Observability gate: boot the real ssbserve handler set, drive traffic,
# scrape /metrics, and validate the Prometheus exposition, its agreement
# with /stats (JSON and text), and the /trace surface end to end.
metrics-smoke:
	$(GO) test ./cmd/ssbserve -run TestMetricsSmoke -count=1 -v

# Overload gate: a 30-second seeded 3x-overload run through the loadgen
# simulator (measured saturation, then open-loop Poisson traffic) asserting
# the shed-rate and p99 bounds plus request conservation — the wall-clock
# end of the invariants TestOverloadGracefulDegradation pins in-process.
load-smoke:
	LOAD_SMOKE_SECONDS=30 $(GO) test ./internal/loadgen -run TestLoadSmoke -count=1 -v -timeout 10m

# Shared-scan batching gate: the differential harness proves every batch
# member's rows and simulated seconds identical to its solo run across all
# placements, and the seeded 3x-overload comparison proves batching clears
# measurably more goodput than single-flight alone (benchgate -check holds
# the same invariants against BENCH_batch.json). BATCH_GOODPUT_STRICT arms
# the wall-clock ratio assertion, which only holds without the race
# detector's instrumentation — the plain `-race ./...` run still checks
# formation, conservation and row identity.
batch-smoke:
	$(GO) test ./internal/queries -run TestDifferentialBatchAgree -count=1 -v -timeout 10m
	BATCH_GOODPUT_STRICT=1 $(GO) test ./internal/loadgen -run TestBatchingGoodputWin -count=1 -v

# Serving-path benchmark gate: three seconds each of the shared-scan,
# solo-scan, result-cache-hit and cold ad-hoc workloads through the
# BENCHMARK.json harness, which exits non-zero on a wrong row, a SimSeconds
# mismatch against the first reply, or a failed traffic assertion (batched
# share, plan hit rate) — and, read off the JSON result line it prints,
# alloc_kb_per_req within its ceiling above.
benchmark-smoke:
	@set -e; \
	check() { \
		out=$$(bash benchmark/run.sh -workload "$$1" -seed 1 -seconds 3 -trace 0) || { printf '%s\n' "$$out"; exit 1; }; \
		printf '%s\n' "$$out"; \
		kb=$$(printf '%s\n' "$$out" | sed -n 's/^{.*"alloc_kb_per_req":{"value":\([0-9.eE+-]*\).*/\1/p'); \
		echo "$$1 alloc_kb_per_req: $$kb KB (ceiling $$2 KB)"; \
		awk "BEGIN { exit !($$kb <= $$2) }" || { echo "alloc_kb_per_req of $$1 is above $$2 KB"; exit 1; }; \
	}; \
	check queued_batch $(ALLOC_KB_MAX_QUEUED_BATCH); \
	check scan_solo $(ALLOC_KB_MAX_SCAN_SOLO); \
	check cache_hot $(ALLOC_KB_MAX_CACHE_HOT); \
	check adhoc_cold $(ALLOC_KB_MAX_ADHOC_COLD)

serve:
	$(GO) run ./cmd/ssbserve

ci: build lint test serve-stress cover fuzz docs bench-smoke bench-check metrics-smoke load-smoke batch-smoke benchmark-smoke

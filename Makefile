GO ?= go

.PHONY: build test race lint lint-fixtures fmt vet fuzz-smoke list trace-golden alloc-guard bench-smoke dynamic-smoke shard-smoke perf-ledger perf-gate perf-baseline all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runtime/ ./internal/core/ ./internal/shard/

# The problem/algorithm registry (also the README's algorithm table).
list:
	$(GO) run ./cmd/dgp-run -list

# Domain analyzers (internal/analysis, driven by cmd/dgp-lint): map-order
# determinism, seeded randomness, machine purity, CONGEST payload sizing,
# sentinel error wrapping, plus the dataflow checks — inbox slab aliasing,
# the //dgp:hotpath allocation gate, obs emission ordering, and the dynamic
# session Seq-ledger discipline. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/dgp-lint ./...

# The analyzers' own golden fixtures (internal/analysis/testdata), run
# through the stdlib analysistest clone: every diagnostic must match a
# `// want` comment and vice versa.
lint-fixtures:
	$(GO) test -count=1 ./internal/analysis/...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# The trace determinism contract, checked through the CLIs: a fixed-seed
# chaotic self-healing run records the same event stream on both engines
# (durations excepted — `dgp-trace diff` canonicalizes them away).
trace-golden:
	$(GO) build -o /tmp/dgp-run ./cmd/dgp-run
	$(GO) build -o /tmp/dgp-trace ./cmd/dgp-trace
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -trace /tmp/seq.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -parallel -trace /tmp/pool.jsonl
	/tmp/dgp-trace diff /tmp/seq.jsonl /tmp/pool.jsonl

# Disabled tracing must stay near-zero-cost: the steady-state allocation
# budget tests fail if the per-round allocation count regresses (0
# allocs/round on every engine mode since the columnar rewrite, and on
# template rounds since stage tags moved into the engine's Msg).
alloc-guard:
	$(GO) test -run 'TestSteadyStateAllocBudget' -count=1 -v ./internal/runtime/
	$(GO) test -run 'TestTemplateAllocBudget' -count=1 -v ./internal/core/

# The 100k-node scale sweep on both engines — a fast end-to-end smoke of
# the columnar hot path (CSR build, arena inboxes, frontier compaction).
# EXPERIMENTS.md's scale table holds the full 1M/10M numbers.
bench-smoke:
	$(GO) run ./cmd/dgp-bench -nodes 100000
	$(GO) run ./cmd/dgp-bench -nodes 100000 -par

# Brief coverage-guided runs of the committed fuzz targets; the seed corpora
# under testdata/fuzz always run as part of `make test`.
fuzz-smoke:
	$(GO) test ./internal/runtime -run '^$$' -fuzz FuzzAdversaryParity -fuzztime 30s
	$(GO) test ./internal/heal -run '^$$' -fuzz FuzzCarve -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzSessionConvergence -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzShardParity -fuzztime 30s

# The sharded engine end to end: a sharded CLI run whose trace must match
# the unsharded engine's byte for byte (the determinism contract), then the
# CH8 boundary-traffic sweep at 100k nodes on both engine modes.
shard-smoke:
	$(GO) build -o /tmp/dgp-run ./cmd/dgp-run
	$(GO) build -o /tmp/dgp-trace ./cmd/dgp-trace
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -trace /tmp/unsharded.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -shards 4 -trace /tmp/sharded.jsonl
	/tmp/dgp-trace diff -drop shard-exchange /tmp/unsharded.jsonl /tmp/sharded.jsonl
	$(GO) run ./cmd/dgp-bench -shards 1,2,4,8
	$(GO) run ./cmd/dgp-bench -shards 1,2,4,8 -par

# The performance ledger (DESIGN.md §13): every sweep also emits a
# machine-readable BENCH_<experiment>.json, and dgp-perf gates head ledgers
# against the committed baseline. Deterministic counters (rounds, messages,
# residuals, boundary traffic) must reproduce exactly; allocs/round has a
# small noise band; wall-clock metrics are informational only, so the
# committed baseline is portable across machines.
PERF_LEDGER_DIR ?= /tmp/perf-ledger
perf-ledger:
	$(GO) run ./cmd/dgp-bench -chaos -bench-out $(PERF_LEDGER_DIR) > /dev/null
	$(GO) run ./cmd/dgp-bench -dynamic -bench-out $(PERF_LEDGER_DIR) > /dev/null
	$(GO) run ./cmd/dgp-bench -nodes 100000 -bench-out $(PERF_LEDGER_DIR) > /dev/null
	$(GO) run ./cmd/dgp-bench -shards 1,2,4 -bench-out $(PERF_LEDGER_DIR) > /dev/null

# The CI regression gate: regenerate head ledgers and compare against
# testdata/perf/baseline; exits non-zero on any regression or coverage loss.
perf-gate: perf-ledger
	$(GO) run ./cmd/dgp-perf gate -baseline testdata/perf/baseline $(PERF_LEDGER_DIR)

# Baseline refresh: rerun the sweeps into testdata/perf/baseline and commit
# the result. Do this when a PR intentionally moves a gated metric (fewer
# rounds, lower boundary traffic, changed sweep shape) — the dgp-perf compare
# output belongs in that PR's description.
perf-baseline:
	$(GO) run ./cmd/dgp-bench -chaos -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-bench -dynamic -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-bench -nodes 100000 -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-bench -shards 1,2,4 -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-perf validate testdata/perf/baseline

# The dynamic-session path end to end: the update-stream CLI under stream
# chaos on both engines, then the CH5/CH6 recovery tables (batch-size sweep
# and the 250k-node scale run demonstrating rounds ∝ η, not n).
dynamic-smoke:
	$(GO) build -o /tmp/dgp-run ./cmd/dgp-run
	printf '{"seq":1,"insert":[[0,50],[1,60]]}\n{"seq":2,"delete":[[0,50]],"insert":[[2,70]]}\n{"seq":1,"insert":[[0,50]]}\n' > /tmp/updates.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 200 -seed 7 -updates /tmp/updates.jsonl -streamchaos 0.3
	/tmp/dgp-run -problem mis -graph gnp -n 200 -seed 7 -updates /tmp/updates.jsonl -streamchaos 0.3 -parallel
	$(GO) run ./cmd/dgp-bench -dynamic

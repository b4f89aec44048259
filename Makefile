# QPIAD build/test targets. `make tier1` is the gate CI runs: build, vet,
# the project's own analyzers (lint), and the full test suite under the
# race detector.

GO ?= go

# The bench-* targets pipe `go test -bench` into qpiad-benchjson; without
# pipefail a b.Fatal in an in-bench assertion would be masked by the
# (successful) JSON writer's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: tier1 build vet lint sarif test race vuln bench bench-json bench-planner bench-load bench-chaos perfbench-check clean

tier1: build vet lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project's custom analyzers (cancelleak, ctxflow, errdrop,
# lockbalance, locksafe, nakedgoroutine, nodeterm, tupleescape) over the
# whole module through the standard vet driver, plus the suppression audit
# (stale or unknown //lint:allow comments are findings). Exits non-zero on
# any finding; see DESIGN.md "Enforced invariants".
lint: bin/qpiad-vet
	$(GO) vet -vettool=bin/qpiad-vet ./...

# sarif writes the same findings as a SARIF 2.1.0 log for CI artifact
# upload. Exit status matches lint (non-zero on findings); the log is
# written either way.
SARIF_OUT ?= qpiad-vet.sarif
sarif: bin/qpiad-vet
	./bin/qpiad-vet -json ./... > $(SARIF_OUT)

bin/qpiad-vet: FORCE
	$(GO) build -o bin/qpiad-vet ./cmd/qpiad-vet

.PHONY: FORCE
FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vuln scans dependencies for known vulnerabilities. govulncheck is not
# vendored; install it where network is available:
#   go install golang.org/x/vuln/cmd/govulncheck@latest
vuln:
	govulncheck ./...

bench:
	$(GO) test -bench=. -benchmem .

# bench-json runs the performance-layer benchmarks and writes a JSON
# baseline (name -> ns/op, B/op, allocs/op, plus custom */op metrics such as
# queries/op and ttfa-ns/op) for diffing across PRs. BENCH_FLAGS lets CI run
# a one-iteration smoke (-benchtime=1x) without changing the target.
BENCH_JSON ?= BENCH_PR6.json
BENCH_FLAGS ?=
bench-json:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkMineKnowledge|BenchmarkWarmQuery|BenchmarkRewriteGeneration|BenchmarkQuerySelectEndToEnd|BenchmarkTANEMining|BenchmarkNBCPrediction|BenchmarkStreamVsBatch|BenchmarkBreakerFlap|BenchmarkLazyVsMaterializedAggregate' \
		-benchmem $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_JSON)

# bench-planner pins the PR7 planner claim: on the pessimal four-source
# chain, planner-on must strictly reduce source queries/op and tuples/op vs
# caller order (the benchmark itself b.Fatals otherwise, and first proves
# planner-on/off answer-set equivalence). Writes the JSON baseline.
BENCH_PLANNER_JSON ?= BENCH_PR7.json
bench-planner:
	$(GO) test -run '^$$' -bench 'BenchmarkPlannerVsCallerOrder' \
		-benchmem $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_PLANNER_JSON)

# bench-load pins the PR8 admission-control claim: the closed-loop loadgen
# mix at 16/64/256 workers against the in-process HTTP server, admission
# off vs on. At the saturating step the benchmark itself b.Fatals unless
# admission-on holds p99 strictly below admission-off with goodput within
# 10%. Each cell is one fixed-duration run, so -benchtime=1x is baked in;
# QPIAD_LOADBENCH_WORKERS / QPIAD_LOADBENCH_STEP_MS shrink it for CI smoke.
BENCH_LOAD_JSON ?= BENCH_PR8.json
bench-load:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadSLO' \
		-benchtime=1x $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_LOAD_JSON)

# bench-chaos pins the PR10 robustness claim: one full chaos run (seeded
# loadgen traffic while the generated scenario crashes/restores the source,
# flaps faults, kills and drains the server, corrupts and reloads knowledge,
# and skews the clock) with the four invariant oracles armed. The benchmark
# b.Fatals unless every invariant passes — degradation-soundness violations
# must be zero — and availability stays at or above the floor (default 99%).
# One run is one measurement, so -benchtime=1x is baked in; QPIAD_CHAOS_MS /
# QPIAD_CHAOS_MIN_AVAIL shrink the window and floor for CI smoke.
BENCH_CHAOS_JSON ?= BENCH_PR10.json
bench-chaos:
	$(GO) test -run '^$$' -bench 'BenchmarkChaosAvailability' \
		-benchtime=1x $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_CHAOS_JSON)

# perfbench-check runs the end-to-end benchmark's own checks. perfbench/ is
# a nested module, so `./...` at the root skips it: vet and test it in
# place, then run one short hot-cache smoke. The smoke's answer oracle
# parses every reply body, so the target fails unless the result line (the
# last line of standard output) reports "correct": true.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload hot-cache --seed 1 --seconds 1 --trace 0 \
		| tail -n 1 | tee /dev/stderr | grep -Eq '"correct": ?true'

clean:
	$(GO) clean ./...

# QPIAD build/test targets. `make tier1` is the gate CI runs: build, vet,
# the gofmt check, the project's own analyzers (lint), and the full test
# suite under the race detector.

GO ?= go

# The bench-* targets pipe `go test -bench` into qpiad-benchjson; without
# pipefail a b.Fatal in an in-bench assertion would be masked by the
# (successful) JSON writer's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: tier1 build vet fmt-check lint sarif test race fuzz-smoke vuln bench bench-json bench-chain bench-load bench-chaos perfbench-check clean

tier1: build vet fmt-check lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any tracked .go file, and lists
# those files. testdata/ is skipped: its analyzer fixtures align their
# `// want` comments by hand. Untracked trees (the gitignored .bench_build/)
# are never listed.
fmt-check:
	unformatted=$$(git ls-files -- '*.go' ':!*/testdata/*' | xargs -r gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

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

# fuzz-smoke runs every native fuzz target (a `func FuzzX` in a test file
# under internal/ or cmd/) with -fuzz for 10s each; plain `go test` only
# replays their seed corpora. -fuzz takes one target of one package per
# run, hence the loop. A failing input is saved under the package's
# testdata/fuzz/ and the target fails.
fuzz-smoke:
	for pkg in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd | xargs -n1 dirname | sort -u); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$pkg/*_test.go); do \
			echo "fuzz-smoke: $$target in ./$$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s ./$$pkg; \
		done; \
	done

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
#
# Every bench-* target writes under the gitignored .bench_build/ by default,
# so a plain run never overwrites a committed BENCH_PR*.json baseline.
# Refresh one by naming it: `make bench-json BENCH_JSON=BENCH_PR6.json`.
BENCH_JSON ?= .bench_build/bench.json
BENCH_FLAGS ?=
bench-json:
	mkdir -p $(dir $(BENCH_JSON))
	$(GO) test -run '^$$' \
		-bench 'BenchmarkMineKnowledge|BenchmarkWarmQuery|BenchmarkRewriteGeneration|BenchmarkQuerySelectEndToEnd|BenchmarkTANEMining|BenchmarkNBCPrediction|BenchmarkStreamVsBatch|BenchmarkBreakerFlap|BenchmarkLazyVsMaterializedAggregate' \
		-benchmem $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_JSON)

# bench-chain pins what an empty base saves: on a four-source chain whose
# last selection is empty, no rewrite is sent, so the chain must read at
# most 4 source queries/op and 977 tuples/op, the figures BENCH_PR7.json
# records for the statistics-driven planner this rule replaced (the
# benchmark itself b.Fatals otherwise, and first checks that a non-empty
# variant returns answers). Writes the JSON baseline.
BENCH_CHAIN_JSON ?= .bench_build/bench-chain.json
bench-chain:
	mkdir -p $(dir $(BENCH_CHAIN_JSON))
	$(GO) test -run '^$$' -bench 'BenchmarkChainEmptyBase' \
		-benchmem $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_CHAIN_JSON)

# bench-load pins the PR8 admission-control claim: the closed-loop loadgen
# mix at 16/64/256 workers against the in-process HTTP server, admission
# off vs on. At the saturating step the benchmark itself b.Fatals unless
# admission-on holds p99 strictly below admission-off with goodput within
# 10%. Each cell is one fixed-duration run, so -benchtime=1x is baked in;
# QPIAD_LOADBENCH_WORKERS / QPIAD_LOADBENCH_STEP_MS shrink it for CI smoke.
# Committed baseline: BENCH_PR8.json.
BENCH_LOAD_JSON ?= .bench_build/bench-load.json
bench-load:
	mkdir -p $(dir $(BENCH_LOAD_JSON))
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
# Committed baseline: BENCH_PR10.json.
BENCH_CHAOS_JSON ?= .bench_build/bench-chaos.json
bench-chaos:
	mkdir -p $(dir $(BENCH_CHAOS_JSON))
	$(GO) test -run '^$$' -bench 'BenchmarkChaosAvailability' \
		-benchtime=1x $(BENCH_FLAGS) . | $(GO) run ./cmd/qpiad-benchjson -o $(BENCH_CHAOS_JSON)

# perfbench-check runs the end-to-end benchmark's own checks. perfbench/ is
# a nested module, so `./...` at the root skips it: vet and test it in
# place, then run three short smokes, one per workload. The answer oracle
# parses every reply body, so each smoke fails unless its result line (the
# last line of standard output) reports "correct": true. The interactive
# smoke runs every request through the rewrite pipeline with the answer
# cache bypassed (rewrite generation, NBC, the fold and the encoders); the
# hot-cache smoke covers the answer cache and the wire encoders; the
# web-sources smoke sends selects, aggregates, top-N streams and joins
# through the fetch engine at Parallel 4 under seeded faults and checks
# each reply against a fault-free Parallel=1 reference mediator. Each
# result line is copied to stderr with `tee -a`: a plain tee reopens
# /dev/stderr with O_TRUNC, so when stderr is a file only the last smoke's
# line would survive.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload interactive --seed 1 --seconds 1 --trace 0 \
		| tail -n 1 | tee -a /dev/stderr | grep -Eq '"correct": ?true'
	bash perfbench/run.sh --workload hot-cache --seed 1 --seconds 1 --trace 0 \
		| tail -n 1 | tee -a /dev/stderr | grep -Eq '"correct": ?true'
	bash perfbench/run.sh --workload web-sources --seed 1 --seconds 1 --trace 0 \
		| tail -n 1 | tee -a /dev/stderr | grep -Eq '"correct": ?true'

clean:
	$(GO) clean ./...

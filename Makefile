# Build, verify and benchmark the ACM reproduction.
#
#   make check       # everything CI runs: fmt, vet, lint, build, race tests, bench gate
#   make test        # plain test suite
#   make race        # full suite under the race detector
#   make bench       # the complete evaluation as benchmarks
#   make bench-smoke # one cheap iteration of the Figure 3 benchmarks
#   make bench-json  # record BENCH_ci.json and gate it against BENCH_baseline.json
#   make bench-set   # print the gate's benchmark pattern (BENCH_SET)
#   make lint        # golangci-lint (falls back to go vet when not installed)
#   make docs        # regenerate docs/SCENARIOS.md + docs/METRICS.md + docs/TRACING.md from the registries
#   make docs-check  # fail when generated docs are stale or links are dead
#   make api-check   # fail when an exported function in internal/ has no non-test caller,
#                    # or an unexported field in internal/ has no non-test reader
#   make metrics-lint # enforce Prometheus naming conventions on every family
#   make bench-check # vet and test the reference benchmark module under bench/
#   make loc         # net non-test Go LOC over internal/, cmd/ and examples/
#   make fuzz        # run every Fuzz* target for FUZZTIME each

GO ?= go

# The benchmark set the regression gate records and compares.  bench-json,
# bench-baseline, the CI bench-regression job (which runs `make bench-json`)
# and the nightly record (which reads it with `make -s bench-set`) all share
# this one definition, so no two of them can record different benchmark sets.
# VMSample, ShardDispatch, DispatchPick, AnomalyBatch, ErlangDraw,
# CrossLaneForward, EventQueue, MixPick, GSLBRoute and StandbyPromotion are
# per-layer benchmarks: one op is a fixed batch of units, and each also
# reports ns and allocs per unit.
BENCH_SET = RegionSharded|Figure3|GlobalDirector|GlobalLatency|CohortPopulation|Megaclients|VMSample|ControlTick|ShardDispatch|DispatchPick|AnomalyBatch|ErlangDraw|CrossLaneForward|EventQueue|MixPick|GSLBRoute|StandbyPromotion
# -count=3: benchjson records each unit's median over the three samples, so
# one noisy sample on a shared box cannot trip the gate.
BENCH_GATE = $(GO) test -bench='$(BENCH_SET)' -benchtime=1x -count=3 -benchmem -run='^$$' .

.PHONY: check fmt vet lint build test test-repeat race bench bench-smoke bench-json bench-baseline bench-set bench-check docs docs-check api-check metrics-lint loc fuzz

check: fmt vet lint build race test-repeat bench-json bench-check metrics-lint docs-check api-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The CI lint job runs golangci-lint (govet, staticcheck, errcheck,
# ineffassign, stylecheck/ST1000 — see .golangci.yml), pinned to v1.64.8 in
# .github/workflows/ci.yml; install the same release locally so `make lint`
# and CI agree.  We degrade to go vet when the binary is absent so `make
# check` works in a bare container.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; running go vet only"; \
		$(GO) vet ./...; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-repeat reruns each test in one process, so a test that leans on
# package-level state, such as a default it edits, fails the second pass.
# The CI verify job runs this target.
test-repeat:
	$(GO) test -short -count=2 ./internal/acm/... ./internal/cloudsim/... ./internal/experiment/... ./internal/f2pm/... ./internal/gossip/... ./internal/simclock/... ./internal/workload/...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-smoke:
	$(GO) test -bench=Figure3 -benchtime=1x -run='^$$' .

# Record the CI benchmark set as JSON and fail when any benchmark regressed
# beyond tolerance against the committed baseline: ns/op by more than 20%,
# B/op or allocs/op by more than 25%.  The compare step annotates
# BENCH_ci.json with a delta_pct section so the uploaded artifact shows every
# metric's movement without re-running.  Refresh the baseline deliberately
# with `make bench-baseline` when hardware changes or a PR intentionally
# trades speed for capability (procedure in the README).  BENCH_raw.txt is
# scratch output (gitignored).
bench-json:
	$(BENCH_GATE) > BENCH_raw.txt || (cat BENCH_raw.txt; exit 1)
	cat BENCH_raw.txt
	$(GO) run ./cmd/benchjson parse -in BENCH_raw.txt -out BENCH_ci.json
	$(GO) run ./cmd/benchjson compare -baseline BENCH_baseline.json -current BENCH_ci.json -max-regression 0.20 -max-mem-regression 0.25 -annotate

bench-baseline:
	$(BENCH_GATE) > BENCH_raw.txt || (cat BENCH_raw.txt; exit 1)
	cat BENCH_raw.txt
	$(GO) run ./cmd/benchjson parse -in BENCH_raw.txt -out BENCH_baseline.json

# bench-set prints the benchmark pattern, for runs that time the same set with
# other flags (the nightly's -benchtime=3x with CPU and memory profiles).
bench-set:
	@echo '$(BENCH_SET)'

# bench/ is its own Go module (replace repro => ../), so the root `go vet
# ./...` and `go test ./...` never build it; this target is how a change to a
# package it imports is checked against it.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# docs/SCENARIOS.md, docs/METRICS.md and docs/TRACING.md are generated from
# the scenario registry, the instrument registry and the span catalogue; the
# committed copies are kept honest by TestScenariosDocCurrent,
# TestMetricsDocCurrent and TestTracingDocCurrent (and the CI docs job),
# which fail with "run make docs" whenever a registry and its document
# diverge.
docs:
	$(GO) run ./cmd/acmsim -list-scenarios -markdown > docs/SCENARIOS.md
	$(GO) run ./cmd/acmsim -list-metrics > docs/METRICS.md
	$(GO) run ./cmd/acmsim -list-tracing > docs/TRACING.md

# docs-check is what the CI docs job runs: the staleness tests for generated
# docs plus the relative-link checker over every tracked markdown document.
docs-check:
	$(GO) test ./internal/experiment/ -run 'TestScenariosDoc|TestScenariosMarkdown|TestMetricsDoc|TestMetricsMarkdown|TestTracingDoc|TestTracingMarkdown'
	$(GO) run ./cmd/mdcheck README.md ROADMAP.md CHANGES.md PAPER.md docs/*.md

# api-check is what the CI docs job runs to keep internal/ to what the
# program uses.  Both guards type-check internal/, cmd/, examples/ and bench/
# once: TestEveryExportHasAProgramCaller names every exported function or
# method that only tests use, and TestEveryFieldHasAProgramReader every
# unexported field that non-test code writes but never reads.  Their file is
# left out of -race builds, where the type checker is about five times
# slower, so the race suite skips them and this target runs them.
api-check:
	$(GO) test -count=1 -run '^(TestEveryExportHasAProgramCaller|TestEveryFieldHasAProgramReader)$$' .

# metrics-lint walks every instrument family a deployment can register and
# enforces the Prometheus naming conventions (valid names, counters ending in
# _total, HELP and source attribution present).
metrics-lint:
	$(GO) test ./internal/experiment/ -run TestMetricNamesLint

# loc prints the net non-test Go line count (every line of every non-test
# .go file) over internal/, cmd/ and examples/ — the size figure a change
# quotes when it claims to shrink the code.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

# fuzz runs every Fuzz* target under internal/ and cmd/ for FUZZTIME each.
# `go test -fuzz` accepts one target per run, so the targets go one at a
# time; a crasher is written to the package's testdata/fuzz directory, where
# the plain test suite replays it as a seed from then on.  The PR CI job
# runs the short default budget and the nightly `make fuzz FUZZTIME=2m`;
# raise it for a long local run with `make fuzz FUZZTIME=10m`.  New inputs are minimized for 5 s instead of the
# default 60 s: the scenario-JSON seeds run to kilobytes, and minimizing one
# of them would otherwise use up a short budget.
FUZZTIME ?= 10s

fuzz:
	@set -e; for file in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "fuzz ./$$(dirname $$file) $$target"; \
			$(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s ./$$(dirname $$file); \
		done; \
	done

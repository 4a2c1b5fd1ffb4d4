# Developer entry points. `make check` is the tier-1 verification gate
# (referenced from ROADMAP.md): vet, staticcheck (when installed), build
# everything, run the full test suite under the race detector, and vet and
# short-test the perfbench module.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: check vet staticcheck build test race perfbench bench bench-smoke bench-compare fuzz-smoke e2e-smoke e2e-crash

check: vet staticcheck build race perfbench

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is a
# no-op otherwise, so `make check` works in hermetic containers while CI
# (which installs it) still gets the full lint.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		echo "$(STATICCHECK) ./..."; \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench is its own Go module (see perfbench/README.md), so the root
# `./...` patterns never compile it; vet and short-test it against the
# core/cluster API it builds on.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# bench runs every benchmark and records the results as a dated JSON
# artifact (see cmd/benchjson) so perf regressions are diffable across
# sessions.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y-%m-%d).json

# bench-smoke is the CI variant: one pass per benchmark, enough to catch
# allocation regressions and broken benchmarks without CI-grade noise being
# mistaken for timing data. The JSON lands in bench-smoke.json for artifact
# upload.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out bench-smoke.json

# bench-compare diffs the two most recent BENCH_*.json artifacts with
# cmd/benchjson -compare, printing per-benchmark speedups and failing on
# any >10% ns/op regression. Run `make bench` first to capture today's
# artifact.
bench-compare:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need two BENCH_*.json artifacts (run make bench)"; exit 1; fi; \
	echo "comparing $$1 -> $$2"; \
	$(GO) run ./cmd/benchjson -compare $$1 $$2

# fuzz-smoke gives every fuzz target a short budget of fresh inputs on
# top of the seeded corpus the normal test run replays: the plane-kernel
# differential fuzzers, the permutation bijectivity fuzzer, the campaign
# site enumerator, and the codec/parser fuzzers. FUZZTIME scales the
# per-target budget (CI uses the default; crank it locally for a deeper
# soak).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlaneTemporal$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPlaneStack$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPermBijective$$' -fuzztime $(FUZZTIME) ./internal/perm
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignSites$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/rice
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/rice
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/fits
	$(GO) test -run '^$$' -fuzz '^FuzzSanityCheck$$' -fuzztime $(FUZZTIME) ./internal/fits

# e2e-smoke boots the real binaries — one spaceprocd, then a 3-daemon
# fleet behind spaceproc-router with one node killed and readmitted
# mid-run — drives them with loadgen (bit-identical verification on),
# and SIGTERMs everything expecting clean drains. See
# scripts/e2e_smoke.sh.
e2e-smoke:
	sh scripts/e2e_smoke.sh

# e2e-crash boots spaceprocd with the write-ahead request log and dedupe
# cache on, kill -9s it halfway through a verified loadgen run, restarts
# it on the same address and WAL directory, and requires zero lost
# admitted requests, bit-identical results, a logged WAL replay, and
# dedupe hits on repeat baselines. See scripts/e2e_crash.sh (also run at
# the tail of e2e-smoke).
e2e-crash:
	sh scripts/e2e_crash.sh

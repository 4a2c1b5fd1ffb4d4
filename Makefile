# Developer entry points. `make check` is the tier-1 verification gate
# (referenced from ROADMAP.md): vet, staticcheck (when installed), build
# everything, run the full test suite under the race detector, and vet and
# short-test the perfbench module.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: check vet staticcheck build test race fanout perfbench bench bench-smoke bench-compare fuzz-smoke e2e-smoke e2e-crash loc

check: vet staticcheck build race fanout perfbench

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

# fanout reruns the OTIS bit-identity gates (the AlgoOTIS, retrieval and
# Rice digests), the band and row fan-out differential tests, the float
# coder's reference seeds and its allocation pin at GOMAXPROCS 1 and 4, so
# both the sequential loops and the fan-outs meet the pinned digests
# whatever the runner's core count. -cpu only sets the number of Ps; it
# starts no extra threads.
FANOUT_TESTS = TestAlgoOTISGolden|TestSpatialFanOutMatchesSequential|TestRetrievalGolden|TestRowFanOutMatchesSequential|TestRiceEncodeGolden|FuzzEncodeFloat32MatchesReference|TestEncodeAllocs
fanout:
	$(GO) test -count=1 -cpu 1,4 -run '^($(FANOUT_TESTS))$$' ./internal/core ./internal/otisapp ./internal/rice

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
# differential fuzzers, the way-threshold histogram against its sort
# reference, the integer-exact cosmic-ray integrators against their
# sort-based float64 reference, the bit-plane cosmic-ray kernel
# (IntegrateRange) against the per-series integrator, the permutation
# bijectivity fuzzer, the
# campaign site enumerator, the word-speed Rice encoder against its
# byte-at-a-time reference, the float coder (two half streams coded
# concurrently) against its two-pass reference, the codec/parser fuzzers, the little-endian
# pixel codec every port, digest and WAL record shares (decode of
# arbitrary bytes, round trip, zero-copy view against the portable
# conversion), the stack geometry check Submit, Fragment and Reassemble
# share (malformed stacks and tiles error rather than panic, and a stack
# that fragments reassembles to itself), the budgeted gob receive both
# network ports read through (its sample carries pixels), and the
# /metrics exposition parser every scraper reads peer pages with.
# FUZZTIME scales the
# per-target budget (CI uses the default; crank it locally for a deeper
# soak).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlaneTemporal$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPlaneStack$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWayThreshold$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzIntegrateSeries$$' -fuzztime $(FUZZTIME) ./internal/crreject
	$(GO) test -run '^$$' -fuzz '^FuzzIntegrateRange$$' -fuzztime $(FUZZTIME) ./internal/crreject
	$(GO) test -run '^$$' -fuzz '^FuzzPermBijective$$' -fuzztime $(FUZZTIME) ./internal/perm
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignSites$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/rice
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/rice
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/rice
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeFloat32MatchesReference$$' -fuzztime $(FUZZTIME) ./internal/rice
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/fits
	$(GO) test -run '^$$' -fuzz '^FuzzSanityCheck$$' -fuzztime $(FUZZTIME) ./internal/fits
	$(GO) test -run '^$$' -fuzz '^FuzzPixels$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzFragmentGeometry$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzRecv$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime $(FUZZTIME) ./internal/telemetry

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

# loc prints the count of non-test Go lines tracked by git, perfbench
# excluded: the number ROADMAP's "non-test line counts go down" bar reads.
# Run it on two checkouts to compare them.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

GO ?= go

.PHONY: build test race lint fuzz-smoke chaos-soak bench bench-repo bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt + vet + the repo's own determinism analyzers (cmd/ddclint) +
# the analyzers' fixture suites. ./... includes cmd/... and
# internal/analysis/... themselves, so the linter is self-hosting: the
# analyzers and their driver must pass their own checks.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/ddclint ./...
	$(GO) test ./internal/analysis/...

# Chaos soak: every fault profile × 16 seeds on the chaos workloads,
# checking answers stay bit-identical to fault-free and same-seed reruns
# are bit-identical. Per-profile fault-report summaries land in
# SOAK_ARTIFACTS (default ./soak-artifacts) for CI upload.
SOAK_ARTIFACTS ?= soak-artifacts
chaos-soak:
	CHAOS_SOAK=1 CHAOS_SOAK_ARTIFACTS=$(SOAK_ARTIFACTS) \
		$(GO) test ./internal/bench -run TestChaosSoak -v -timeout 30m

# Host benchmark: regenerate the figure suite timed and write the host
# performance report (per-figure wall-clock ns + heap allocations).
# BENCH_10.json is the tracked baseline, produced by this target at the
# reduced scale below; CI's bench-smoke job reruns it and fails on a >25%
# wall-clock regression. Refresh the baseline (make bench, commit the
# file) whenever the suite's host cost legitimately changes.
BENCH_OUT ?= BENCH_10.json
BENCH_BASELINE ?=
BENCH_FLAGS ?= -scale 0.5 -graph-nv 15000 -words 60000 -quiet
bench:
	$(GO) run ./cmd/teleport-bench $(BENCH_FLAGS) -bench-out $(BENCH_OUT) \
		$(if $(BENCH_BASELINE),-bench-baseline $(BENCH_BASELINE))

# The repository benchmark (benchmark/README.md): every workload, ten
# rounds, a traced round and the per-layer probes, with the simulated
# results checked against benchmark/golden.json. bench-compare prints a
# verdict per workload × metric for result file B against A.
bench-repo:
	$(GO) run ./benchmark -seed 1 -out benchmark/out/result.json

bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# Short fuzz pass over the §6 resident-page-list codec and the compute
# cache's run emitter; CI runs this on every push, longer runs are manual
# (go test -fuzz=Fuzz ./internal/netmodel).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzResidentRoundTrip -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalResident -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzCacheRuns -fuzztime=10s ./internal/ddc

GO ?= go

.PHONY: build test race lint fuzz-smoke chaos-soak bench-repo bench-compare ab bench-access bench-push bench-gate bench-rows bench-smoke profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt + vet + the repo's own determinism analyzers (cmd/ddclint) +
# the analyzers' fixture suites, the mutation suite that plants each
# analyzer's violation in a copy of real code, and the CLI goldens.
# ./... includes cmd/... and internal/analysis/... themselves, so the
# linter is self-hosting: the analyzers and their driver must pass their
# own checks. Last, the doc check — every pkg.Name, test name and
# internal/ or cmd/ path that DESIGN.md, README.md or EXPERIMENTS.md cites
# must exist in the code — and
# the censuses: every exported name under internal/ must have a non-test
# caller or a surfaceKeep line, every struct field under internal/ and cmd/
# must be read by some non-test file, and no two metrics-snapshot names may
# be written from one variable.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/ddclint ./...
	$(GO) test ./internal/analysis/... ./cmd/ddclint
	$(GO) test -run 'TestDocsNameOnlyWhatExists|TestInternalSurfaceHasProductionCallers|TestEveryFieldIsRead|TestOneSnapshotNamePerVariable' .

# Chaos soak: every fault profile × 16 seeds on the chaos workloads,
# checking answers stay bit-identical to fault-free and same-seed reruns
# are bit-identical. Per-profile fault-report summaries land in
# SOAK_ARTIFACTS (default ./soak-artifacts) for CI upload.
SOAK_ARTIFACTS ?= soak-artifacts
chaos-soak:
	CHAOS_SOAK=1 CHAOS_SOAK_ARTIFACTS=$(SOAK_ARTIFACTS) \
		$(GO) test ./internal/bench -run TestChaosSoak -v -timeout 30m

# The repository benchmark (benchmark/README.md): every workload, ten
# rounds, a traced round and the per-layer probes, with the simulated
# results checked against benchmark/golden.json. bench-compare prints a
# verdict per workload × metric for result file B against A.
bench-repo:
	$(GO) run ./benchmark -seed 1 -out benchmark/out/result.json

bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# The working tree against a parent revision on one workload of the repository
# benchmark, N pairs in ABBA order (make ab PARENT=HEAD~1 W=cluster N=10
# SEED=3): both sides' medians, q1–q3, the delta and the wins out of N for
# every end-to-end metric, "unresolved" where the quartile ranges overlap.
N ?= 10
SEED ?= 1
ab:
	$(GO) run ./cmd/ab $(PARENT) $(W) $(N) $(SEED)

# The scalar access path (ddc.Env.access), one 8-byte read of a resident
# 1 MB region in order and at random: the frame decode alone, an unlimited
# Linux Env's line model, a pager hit in a monolithic swap cache and in a
# compute cache, and a pushed function's dilated Env at memory place.
# bench-access runs a fixed 2 000 000 reads of each, three times; compare two
# builds with it.
bench-access:
	$(GO) test -run '^$$' -bench 'AccessBudget' -benchtime 2000000x -count 3 ./internal/ddc

# The pushdown call's layer numbers: set-up at 1 500 resident pages (/ro and
# /rw) and pre-image capture. /ro's runs/op and ns/op depend on b.N, so
# bench-push runs a fixed 20 000 iterations, three times; compare two builds
# with it, not with -benchtime in seconds.
bench-push:
	$(GO) test -run '^$$' -bench 'PushdownSetup1500|JournalCapture' -benchtime 20000x -count 3 ./internal/core

# The per-access write-quorum gate (ddc.Machine.GateQuorum) on a 4-shard R=3
# W=2 pool under partition-chaos. The fault schedules it reads grow with the
# clock, which advances 200 ns a gate, so bench-gate runs a fixed 200 000
# gates, three times; compare two builds with it.
bench-gate:
	$(GO) test -run '^$$' -bench 'GateQuorum' -benchtime 200000x -count 3 ./internal/ddc

# The run-accounting primitive (ddc.Rows): a zero-cost scan of 1 MB as a row
# loop; three interleaved streams as a scalar loop and a row loop on three
# machines, the row loop also with a page between the operands (run-gap), so
# that its line steps share no on-chip cache slot; and a selection, a column
# read in every row and appended to a list in about half of them through an
# explicit stream, on two. bench-rows runs a fixed 1 000 iterations of each,
# three times; compare two builds with it.
bench-rows:
	$(GO) test -run '^$$' -bench 'CachedScanRows|InterleavedStreams|SelectRows' -benchtime 1000x -count 3 ./internal/ddc

# Every layer benchmark of mem, ddc and core, one iteration each: go test only
# compiles them, so this is what fails when a benchmark's body panics. The
# numbers mean nothing at one iteration; bench-access, bench-rows, bench-gate
# and bench-push are the ones to compare, and go test -bench Populate
# ./internal/mem prices a frame populated with its range against one taken a
# page at a time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mem
	$(GO) test -run '^$$' -bench 'CachedScanRows|InterleavedStreams|SelectRows|AccessBudget|GateQuorum' -benchtime 1x ./internal/ddc
	$(GO) test -run '^$$' -bench 'PushdownSetup1500|JournalCapture' -benchtime 1x ./internal/core

# Where the host's time goes and where its allocated bytes come from, without
# editing code: make profile W=Q9 P=teleport (one workload on one platform) or
# make profile V=fig ARGS='-fig 21 -parallel 1' (figures; ARGS is passed to the
# verb either way) leaves the CPU and allocation pprof files and the top 20 of
# each in PROFILE_OUT (go tool pprof -http=: reads the former).
V ?= run
W ?= Q9
P ?= teleport
ARGS ?=
PROFILE_OUT ?= profile-out
profile: PROFILE_ARGS = $(if $(filter fig,$(V)),,-workload $(W) -platform $(P)) $(ARGS)
profile: PROFILE_NAME = $(PROFILE_OUT)/$(if $(filter fig,$(V)),fig,$(W)-$(P))
profile:
	mkdir -p $(PROFILE_OUT)
	$(GO) build -o $(PROFILE_OUT)/ddcsim ./cmd/ddcsim
	$(PROFILE_OUT)/ddcsim $(V) $(PROFILE_ARGS) -cpuprofile $(PROFILE_NAME).pprof -memprofile $(PROFILE_NAME).mem.pprof >/dev/null
	$(GO) tool pprof -top -nodecount=20 $(PROFILE_OUT)/ddcsim $(PROFILE_NAME).pprof >$(PROFILE_NAME).top.txt
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 $(PROFILE_OUT)/ddcsim $(PROFILE_NAME).mem.pprof >$(PROFILE_NAME).alloc.txt
	@head -30 $(PROFILE_NAME).top.txt
	@head -30 $(PROFILE_NAME).alloc.txt

# Short fuzz pass over the §6 resident-page-list codec, its run-list and
# pushdown-response decoders (FuzzUnmarshalRuns, FuzzUnmarshalPushdownResponse:
# the test-side oracles WireSize is held to), the pushdown
# request's sizing (WireSize against the marshalled length), the compute cache's
# run emitter, the Env access path — scalar, byte-range and row-loop (ddc.Rows)
# operations alike, dilated by PoolDilation and not, in a process that stored
# its data and in one attached to an image of it — against its reference
# model, copy-on-write dataset images
# and the recycling of their clones' pages through one poisoned arena against
# flat byte arrays, every coldb operator against its row-at-a-time reference
# on every platform — bounded memory pools of 2–64 pages among them — the
# fault plan's one outage schedule against a linear-scan oracle, the
# pushdown's base-list temporary page table against the eager one, the
# sharded pool's replica gates against their per-page reference, and the
# runtime's admission (workqueue, deadlines, PoolDilation) and
# circuit breaker against an abstract state machine; CI runs this
# on every push, longer runs are manual (go test -fuzz=Fuzz ./internal/netmodel).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzResidentRoundTrip -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalResident -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalPushdownRequest -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalRuns -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalPushdownResponse -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzCacheRuns -fuzztime=10s ./internal/ddc
	$(GO) test -run=^$$ -fuzz=FuzzEnvAccessModel -fuzztime=10s ./internal/ddc
	$(GO) test -run=^$$ -fuzz=FuzzSpaceImage -fuzztime=10s ./internal/mem
	$(GO) test -run=^$$ -fuzz=FuzzOperatorsMatchReference -fuzztime=10s ./internal/coldb
	$(GO) test -run=^$$ -fuzz=FuzzSchedulePins -fuzztime=10s ./internal/fault
	$(GO) test -run=^$$ -fuzz=FuzzTempTableMatchesEager -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzReplicaGates -fuzztime=10s ./internal/ddc
	$(GO) test -run=^$$ -fuzz=FuzzAdmissionModel -fuzztime=10s ./internal/core

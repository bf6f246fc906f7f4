GO ?= go

.PHONY: build test race lint fuzz-smoke chaos-soak bench-repo bench-compare profile

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
# own checks.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/ddclint ./...
	$(GO) test ./internal/analysis/... ./cmd/ddclint

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

# Short fuzz pass over the §6 resident-page-list codec, the compute cache's
# run emitter, the Env access path — scalar, ReadU64s and row-loop (ddc.Rows)
# operations alike, in a process that stored its data and in one attached to
# an image of it — against its reference model, copy-on-write dataset images
# and the recycling of their clones' pages through one poisoned arena against
# flat byte arrays, every coldb operator against its row-at-a-time reference
# on every platform — bounded memory pools of 2–64 pages among them — and the
# fault plan's one outage schedule against a linear-scan oracle; CI runs this on
# every push, longer runs are manual (go test -fuzz=Fuzz ./internal/netmodel).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzResidentRoundTrip -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalResident -fuzztime=10s ./internal/netmodel
	$(GO) test -run=^$$ -fuzz=FuzzCacheRuns -fuzztime=10s ./internal/ddc
	$(GO) test -run=^$$ -fuzz=FuzzEnvAccessModel -fuzztime=10s ./internal/ddc
	$(GO) test -run=^$$ -fuzz=FuzzSpaceImage -fuzztime=10s ./internal/mem
	$(GO) test -run=^$$ -fuzz=FuzzOperatorsMatchReference -fuzztime=10s ./internal/coldb
	$(GO) test -run=^$$ -fuzz=FuzzSchedulePins -fuzztime=10s ./internal/fault

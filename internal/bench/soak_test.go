package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// TestChaosSoak is the long-running chaos soak: every fault profile crossed
// with many seeds on every chaos workload, checking the robustness
// invariant at scale — answers bit-identical to the fault-free run, and
// same-seed reruns bit-identical in every observable. It is opt-in
// (CHAOS_SOAK=1, `make chaos-soak`) because it runs hundreds of
// executions; when CHAOS_SOAK_ARTIFACTS names a directory, a per-profile
// fault-report summary is written there for CI upload.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") == "" {
		t.Skip("chaos soak is opt-in: set CHAOS_SOAK=1 (or run `make chaos-soak`)")
	}
	const seeds = 16
	artifactDir := os.Getenv("CHAOS_SOAK_ARTIFACTS")
	if artifactDir != "" {
		if err := os.MkdirAll(artifactDir, 0o755); err != nil {
			t.Fatalf("artifacts dir: %v", err)
		}
	}

	type profAgg struct {
		injected  fault.Counters
		rt        core.RuntimeStats
		stalls    int64
		retries   int64
		failovers int64
		resync    int64
		shStalls  int64
		handoffs  int64
		replays   int64
		repairs   int64
		stale     int64
		qstalls   int64
		shardDown [maxChaosShards]sim.Time
		lines     []string
	}
	agg := map[string]*profAgg{}

	for _, w := range chaosWorkloads() {
		baseline := runChaos(t, w, "none", 1)
		for _, prof := range fault.ProfileNames() {
			a := agg[prof]
			if a == nil {
				a = &profAgg{}
				agg[prof] = a
			}
			for seed := int64(1); seed <= seeds; seed++ {
				got := runChaos(t, w, prof, seed)
				if got.Answer != baseline.Answer {
					t.Errorf("%s under %q seed %d: answer %#x, fault-free %#x",
						w.name, prof, seed, got.Answer, baseline.Answer)
				}
				rerun := runChaos(t, w, prof, seed)
				if got != rerun {
					t.Errorf("%s under %q seed %d: rerun differs:\n  a=%+v\n  b=%+v",
						w.name, prof, seed, got, rerun)
				}
				a.injected = addCounters(a.injected, got.Plan)
				a.rt = addRuntimeStats(a.rt, got.RT)
				a.stalls += got.Stalls
				a.retries += got.Fabric.Retries
				a.failovers += got.Failovers
				a.resync += got.ResyncPages
				a.shStalls += got.ShardStalls
				a.handoffs += got.Handoffs
				a.replays += got.Replays
				a.repairs += got.Repairs
				a.stale += got.StaleCaught
				a.qstalls += got.QuorumStall
				for s := range a.shardDown {
					a.shardDown[s] += got.ShardDown[s]
				}
				a.lines = append(a.lines, fmt.Sprintf(
					"%-8s seed=%-3d elapsed=%-14v injected={%v} rollbacks=%d deadline-aborts=%d breaker-opens=%d fallbacks=%d failovers=%d resync-pages=%d shard-stalls=%d handoffs=%d replays=%d read-repairs=%d quorum-stalls=%d quorum-lost=%d",
					w.name, seed, got.Elapsed, got.Plan, got.RT.Rollbacks,
					got.RT.DeadlineAborts, got.RT.BreakerOpens, got.RT.LocalFallbacks,
					got.Failovers, got.ResyncPages, got.ShardStalls,
					got.Handoffs, got.Replays, got.Repairs, got.QuorumStall, got.RT.QuorumLostObserved))
			}
		}
	}

	// The soak proves nothing about a path it never took: the profile set as
	// a whole must exercise mid-execution rollback.
	var totalMid int64
	for _, a := range agg {
		totalMid += a.injected.CtxMidCrashes
	}
	if totalMid == 0 {
		t.Error("no profile armed a mid-execution crash across the whole soak")
	}

	if artifactDir != "" {
		for prof, a := range agg {
			fr := &FaultReport{
				Profile: prof, Seed: -1, Injected: a.injected,
				FabricRetries: a.retries, PoolStalls: a.stalls,
				SSDReadRetries: a.injected.SSDReadErrors,
				Shards: ddc.ShardStat{
					FailoverReads: a.failovers, ResyncPages: a.resync, Stalls: a.shStalls,
					HandoffRecords: a.handoffs, HandoffReplays: a.replays,
					ReadRepairs: a.repairs, StaleReadsAverted: a.stale, QuorumStalls: a.qstalls,
				},
				Runtime: a.rt,
			}
			// Per-shard availability: aggregate downtime per shard index
			// across the profile's runs (trailing all-zero shards trimmed).
			last := -1
			for s, d := range a.shardDown {
				if d > 0 {
					last = s
				}
			}
			if last >= 0 {
				fr.ShardDowntime = append(fr.ShardDowntime, a.shardDown[:last+1]...)
			}
			body := fmt.Sprintf("aggregate over %d runs\n%s\n\n%s\n",
				len(a.lines), fr, strings.Join(a.lines, "\n"))
			name := filepath.Join(artifactDir, "soak-"+prof+".txt")
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Errorf("artifact %s: %v", name, err)
			}
		}
	}
}

func addCounters(a, b fault.Counters) fault.Counters {
	a.Drops += b.Drops
	a.Corruptions += b.Corruptions
	a.Spikes += b.Spikes
	a.CtxCrashes += b.CtxCrashes
	a.CtxMidCrashes += b.CtxMidCrashes
	a.SSDReadErrors += b.SSDReadErrors
	a.PoolWindows += b.PoolWindows
	a.ShardWindows += b.ShardWindows
	a.LinkWindows += b.LinkWindows
	a.SplitWindows += b.SplitWindows
	return a
}

func addRuntimeStats(a, b core.RuntimeStats) core.RuntimeStats {
	a.PoolDownObserved += b.PoolDownObserved
	a.ShardDownObserved += b.ShardDownObserved
	a.CtxCrashes += b.CtxCrashes
	a.Retries += b.Retries
	a.LocalFallbacks += b.LocalFallbacks
	a.DeadlineAborts += b.DeadlineAborts
	a.Rollbacks += b.Rollbacks
	a.RolledBackPages += b.RolledBackPages
	a.BreakerOpens += b.BreakerOpens
	a.BreakerCloses += b.BreakerCloses
	a.BreakerShortCircuits += b.BreakerShortCircuits
	a.QuorumLostObserved += b.QuorumLostObserved
	a.QuorumAborts += b.QuorumAborts
	return a
}

// soakObserved is everything the path-coverage scenario can compare across
// reruns.
type soakObserved struct {
	Elapsed  sim.Time
	Stats    core.RuntimeStats
	VecHash  uint64
	Rollback int
	BrOpen   int
	BrHalf   int
	BrClose  int
}

// soakScenario drives one runtime through every crash-consistency path in a
// single deterministic schedule: a mid-execution crash pair that rolls back
// and opens the breaker, a short-circuited call while open, a half-open
// probe that closes it.
func soakScenario(t *testing.T) soakObserved {
	t.Helper()
	const pages = 520
	m := ddc.MustMachine(ddc.BaseDDC(1 << 20))
	ring := trace.New(1 << 16)
	m.AttachTrace(ring)
	p := m.NewProcess()
	rt := core.NewRuntime(p, 1)
	// The cooldown must outlast phase 1's own multi-millisecond execution,
	// or the open breaker would already admit a probe at phase 2.
	rt.Policy.BreakerThreshold, rt.Policy.BreakerCooldown = 2, 50*sim.Millisecond

	th := sim.NewThread("driver")
	a := p.Space.AllocPages(pages*mem.PageSize, "vec")
	env := p.NewEnv(th)
	for i := 0; i < pages; i++ {
		env.WriteI64(a+mem.Addr(i)*mem.PageSize, int64(i))
	}
	inc := func(env *ddc.Env) {
		for i := 0; i < pages; i++ {
			addr := a + mem.Addr(i)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}

	// Phase 1 — rollback: every pushdown attempt crashes mid-execution, so
	// the policy rolls back twice and falls back locally; two consecutive
	// failures open the breaker.
	m.AttachFault(fault.NewPlan(fault.Profile{Name: "mid", CtxCrashMidProb: 1}, 3))
	if _, ran, err := rt.PushdownWithPolicy(th, inc, core.Options{}); err != nil || ran {
		t.Fatalf("phase 1: ran=%v err=%v, want rollback + local fallback", ran, err)
	}

	// Phase 2 — open breaker short-circuits straight to local execution.
	if _, ran, err := rt.PushdownWithPolicy(th, inc, core.Options{}); err != nil || ran {
		t.Fatalf("phase 2: ran=%v err=%v, want short-circuit", ran, err)
	}

	// Phase 3 — faults cleared, cooldown elapsed: the half-open probe
	// succeeds and closes the breaker.
	m.AttachFault(nil)
	th.Advance(60 * sim.Millisecond)
	if _, ran, err := rt.PushdownWithPolicy(th, inc, core.Options{}); err != nil || !ran {
		t.Fatalf("phase 3: ran=%v err=%v, want a successful probe", ran, err)
	}

	// The three increment calls (two local, one pushed) applied exactly
	// once each despite two mid-execution crashes.
	var h uint64
	for i := 0; i < pages; i++ {
		if got := env.ReadI64(a + mem.Addr(i)*mem.PageSize); got != int64(i)+3 {
			t.Fatalf("slot %d = %d, want %d (exactly-once violated across the scenario)", i, got, i+3)
		}
		h = h*1099511628211 + uint64(i)
	}

	counts := map[trace.Kind]int{}
	for _, e := range ring.Events() {
		if e.Phase != trace.PhaseEnd {
			counts[e.Kind]++
		}
	}
	return soakObserved{
		Elapsed:  th.Now(),
		Stats:    rt.Stats(),
		VecHash:  h,
		Rollback: counts[trace.KindPushRollback],
		BrOpen:   counts[trace.KindBreakerOpen],
		BrHalf:   counts[trace.KindBreakerHalfOpen],
		BrClose:  counts[trace.KindBreakerClose],
	}
}

// partObserved is everything the partition scenario can compare across
// reruns.
type partObserved struct {
	Elapsed      sim.Time
	Stats        core.RuntimeStats
	Sum          int64
	Hinted       int // hinted-handoff instants traced
	AntiEntropy  int // shard-anti-entropy sweep spans
	Repair       int // read-repair spans
	QuorumEvents int // shard-down events flagged as quorum losses
	Stat1        ddc.ShardStat
	QStalls0     int64
}

// partitionScenario drives one machine through the full partition
// tolerance cycle in a single deterministic schedule: a quorum write that
// journals hinted handoffs for a severed replica, a failover read that
// detects the stale copy via its version tag and read-repairs it, an
// anti-entropy sweep that replays the surviving record when the link heals,
// and a pushdown that sheds with ErrQuorumLost while the working set is
// below its write quorum, then succeeds once the partition lifts.
func partitionScenario(t *testing.T) partObserved {
	t.Helper()
	const n = 2048 // 4 data pages: primaries cover every shard
	cfg := ddc.BaseDDC(16 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
	m := ddc.MustMachine(cfg)
	ring := trace.New(1 << 16)
	m.AttachTrace(ring)
	plan := fault.NewPlan(fault.Profile{Name: "part"}, 0)
	m.AttachFault(plan)
	p := m.NewProcess()
	rt := core.NewRuntime(p, 1)
	th := sim.NewThread("driver")

	a := p.Space.Alloc(int64(n)*8, "vec")
	env := p.NewEnv(th)
	for i := 0; i < n; i++ {
		env.WriteI64(a+mem.Addr(i*8), int64(i))
	}

	// Pages A and B stripe to shard 0 (replica set {0,1,2}); page C strips
	// to shard 1. They are metadata-only page IDs outside the allocated
	// space: AccessPage/ReplicatePage model routing cost, not bytes.
	const pgA, pgB, pgC = mem.PageID(1004), mem.PageID(1008), mem.PageID(1001)
	base := th.Now()
	us := func(d int64) sim.Time { return base + sim.Time(d)*sim.Microsecond }
	// Shard 0 cannot push copies to shard 1 for a long stretch; shard 2 can
	// after t+80; the compute node loses shard 0 during [40,80) and shards
	// 2 and 3 during [300,600).
	plan.Pin(fault.Link(0, 1), fault.Window{Down: us(10), Up: us(200)})
	plan.Pin(fault.Link(2, 1), fault.Window{Down: us(10), Up: us(80)})
	plan.Pin(fault.Link(fault.EndpointCompute, 0), fault.Window{Down: us(40), Up: us(80)})
	plan.Pin(fault.Link(fault.EndpointCompute, 2), fault.Window{Down: us(300), Up: us(600)})
	plan.Pin(fault.Link(fault.EndpointCompute, 3), fault.Window{Down: us(300), Up: us(600)})

	// Phase 1 — hinted handoff: two quorum writes commit on {0,2} and
	// journal hinted records for the severed shard 1.
	th.AdvanceTo(us(10))
	m.ReplicatePage(th, pgA, 0)
	m.ReplicatePage(th, pgB, 0)

	// Phase 2 — read-repair: with shard 0 partitioned from compute, a read
	// of A fails over to shard 1, whose copy is stale and unrepairable
	// until the 2→1 link heals; the version check catches it and the
	// repair stalls for the heal instead of serving stale bytes.
	th.AdvanceTo(us(40))
	if s := m.AccessPage(th, pgA, false); s != 1 {
		t.Fatalf("partitioned read served by shard %d, want failover to 1", s)
	}
	if th.Now() < us(80) {
		t.Fatalf("stale read served at %v, before any fresh replica could reach shard 1 (%v)", th.Now(), us(80))
	}

	// Phase 3 — anti-entropy: traffic touching shard 1 over the healed 2→1
	// link drains B's surviving record (A's was superseded by the repair).
	if s := m.AccessPage(th, pgC, false); s != 1 {
		t.Fatalf("post-heal read served by shard %d, want primary 1", s)
	}

	// Phase 4 — quorum loss: with compute severed from shards 2 and 3,
	// pages primaried on 1 and 2 have one usable replica < W=2. The bare
	// pushdown sheds with ErrQuorumLost; the policy waits for the heal.
	th.AdvanceTo(us(310))
	var out int64
	if _, err := rt.Pushdown(th, func(env *ddc.Env) {
		var s int64
		for i := 0; i < n; i++ {
			s += env.ReadI64(a + mem.Addr(i*8))
		}
		out = s
	}, core.Options{}); !errors.Is(err, core.ErrQuorumLost) {
		t.Fatalf("pushdown below write quorum: err = %v, want ErrQuorumLost", err)
	}
	_, ran, err := rt.PushdownWithPolicy(th, func(env *ddc.Env) {
		var s int64
		for i := 0; i < n; i++ {
			s += env.ReadI64(a + mem.Addr(i*8))
		}
		out = s
	}, core.Options{})
	if err != nil || !ran {
		t.Fatalf("policy: ran=%v err=%v, want a successful retry after the partition heals", ran, err)
	}
	if th.Now() < us(600) {
		t.Fatalf("retry succeeded at %v, before the partition lifted at %v", th.Now(), us(600))
	}

	obs := partObserved{
		Elapsed:  th.Now(),
		Stats:    rt.Stats(),
		Sum:      out,
		Stat1:    m.ShardStats[1],
		QStalls0: m.ShardStats[0].QuorumStalls,
	}
	for _, e := range ring.Events() {
		if e.Phase == trace.PhaseEnd {
			continue
		}
		switch e.Kind {
		case trace.KindHintedHandoff:
			obs.Hinted++
		case trace.KindShardAntiEntropy:
			obs.AntiEntropy++
		case trace.KindReadRepair:
			obs.Repair++
		case trace.KindShardDown:
			if e.Arg == 1 {
				obs.QuorumEvents++
			}
		}
	}
	return obs
}

// TestSoakPartitionPathCoverage is the partition analogue of the path
// coverage test: one deterministic schedule provably exercises hinted
// handoff, version-tag staleness detection with read-repair, the
// anti-entropy replay after a link heal, and the ErrQuorumLost shed/retry
// cycle — asserted through trace-kind counts — and a rerun of the identical
// schedule is bit-identical.
func TestSoakPartitionPathCoverage(t *testing.T) {
	got := partitionScenario(t)

	if got.Sum != int64(2048)*2047/2 {
		t.Errorf("pushdown sum = %d, want %d", got.Sum, int64(2048)*2047/2)
	}
	if got.Hinted != 2 || got.Stat1.HandoffRecords != 2 {
		t.Errorf("hinted handoffs: trace=%d stats=%d, want 2 and 2", got.Hinted, got.Stat1.HandoffRecords)
	}
	if got.AntiEntropy != 1 || got.Stat1.PartitionHeals != 1 || got.Stat1.HandoffReplays != 1 {
		t.Errorf("anti-entropy: spans=%d stat-heals=%d replays=%d, want 1/1/1",
			got.AntiEntropy, got.Stat1.PartitionHeals, got.Stat1.HandoffReplays)
	}
	if got.Repair != 1 || got.Stat1.ReadRepairs != 1 || got.Stat1.StaleReadsAverted != 1 {
		t.Errorf("read-repair: spans=%d repairs=%d stale-averted=%d, want 1/1/1",
			got.Repair, got.Stat1.ReadRepairs, got.Stat1.StaleReadsAverted)
	}
	if got.QStalls0 == 0 {
		t.Error("the blocked read-repair charged no quorum stall on the primary")
	}
	if got.QuorumEvents != 2 || got.Stats.QuorumLostObserved != 2 {
		t.Errorf("quorum losses: trace=%d stats=%d, want 2 and 2 (bare + policy first attempt)",
			got.QuorumEvents, got.Stats.QuorumLostObserved)
	}
	if got.Stats.Retries != 1 || got.Stats.LocalFallbacks != 0 {
		t.Errorf("Retries=%d LocalFallbacks=%d, want one scheduled-wait retry and no fallback",
			got.Stats.Retries, got.Stats.LocalFallbacks)
	}

	rerun := partitionScenario(t)
	if got != rerun {
		t.Errorf("identical schedules differ:\n  a=%+v\n  b=%+v", got, rerun)
	}
}

// TestSoakPathCoverage is the always-on distillation of the soak: one
// deterministic configuration provably exercises undo-log rollback and a
// full breaker open → half-open → close cycle, asserted through trace-kind counts — and a rerun of the identical
// schedule is bit-identical.
func TestSoakPathCoverage(t *testing.T) {
	got := soakScenario(t)

	if got.Rollback != 2 || got.Stats.Rollbacks != 2 {
		t.Errorf("rollbacks: trace=%d stats=%d, want 2 and 2", got.Rollback, got.Stats.Rollbacks)
	}
	if got.Stats.RolledBackPages == 0 {
		t.Error("RolledBackPages = 0, want > 0")
	}
	if got.BrOpen != 1 || got.BrHalf != 1 || got.BrClose != 1 {
		t.Errorf("breaker cycle: open=%d half=%d close=%d, want 1/1/1",
			got.BrOpen, got.BrHalf, got.BrClose)
	}
	if got.Stats.BreakerShortCircuits != 1 {
		t.Errorf("BreakerShortCircuits = %d, want 1", got.Stats.BreakerShortCircuits)
	}
	if got.Stats.LocalFallbacks != 2 {
		t.Errorf("LocalFallbacks = %d, want 2 (crash fallback + short-circuit)", got.Stats.LocalFallbacks)
	}

	rerun := soakScenario(t)
	if got != rerun {
		t.Errorf("identical schedules differ:\n  a=%+v\n  b=%+v", got, rerun)
	}
}

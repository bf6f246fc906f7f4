package bench

import (
	"math"
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/graph"
	"teleport/internal/mapreduce"
	"teleport/internal/netmodel"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
	"teleport/internal/trace"
)

// The chaos suite runs representative workloads from all three systems on
// the TELEPORT platform under every fault profile and checks the central
// robustness invariant: faults perturb virtual time (retries, stalls,
// fallbacks) but never answers, and two runs with the same chaos seed are
// bit-for-bit identical — same virtual-time total, same injection counters,
// same recovery counters.

// chaosWorkload is one workload with a bit-exact answer extraction.
type chaosWorkload struct {
	name string
	push []string
	// build loads the dataset into p and returns the runner plus an answer
	// function producing a bit-exact encoding of the workload's output.
	build func(p *ddc.Process, th *sim.Thread) (func(ex *profile.Exec), func() uint64)
}

func chaosWorkloads() []chaosWorkload {
	return []chaosWorkload{
		{
			name: "Q6", push: q6Push,
			build: func(p *ddc.Process, th *sim.Thread) (func(ex *profile.Exec), func() uint64) {
				d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: 0.5, Seed: 1})
				var ans float64
				return func(ex *profile.Exec) { ans = tpch.Q6(ex, d, 730) },
					func() uint64 { return math.Float64bits(ans) }
			},
		},
		{
			name: "QFilter", push: []string{tpch.OpSelection, tpch.OpProjection, tpch.OpAggregation},
			build: func(p *ddc.Process, th *sim.Thread) (func(ex *profile.Exec), func() uint64) {
				d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: 0.5, Seed: 1})
				var ans float64
				return func(ex *profile.Exec) { ans = tpch.QFilter(ex, d, 1460) },
					func() uint64 { return math.Float64bits(ans) }
			},
		},
		{
			name: "SSSP", push: []string{graph.OpFinalize, graph.OpScatter, graph.OpGather},
			build: func(p *ddc.Process, th *sim.Thread) (func(ex *profile.Exec), func() uint64) {
				g, _ := graph.Generate(p, graph.GenConfig{NV: 8000, AvgDegree: 6, Seed: 1})
				eng := graph.NewEngine(g, graph.SSSP(0), 4)
				return func(ex *profile.Exec) { eng.Run(ex) },
					func() uint64 {
						env := p.NewEnv(th)
						var h uint64
						for v := 0; v < 8000; v++ {
							h = h*1099511628211 + uint64(eng.Value(env, v))
						}
						return h
					}
			},
		},
		{
			name: "WC", push: []string{mapreduce.OpMapShuffle},
			build: func(p *ddc.Process, th *sim.Thread) (func(ex *profile.Exec), func() uint64) {
				c, _ := mapreduce.GenerateCorpus(p, mapreduce.CorpusConfig{Words: 30000, Vocab: 4000, Seed: 1})
				eng := mapreduce.NewEngine(c, mapreduce.WordCount{}, 4, 8)
				return func(ex *profile.Exec) { eng.Run(ex) },
					func() uint64 {
						var h uint64
						for _, kv := range eng.Results() {
							h = h*1099511628211 + uint64(kv.K)
							h = h*1099511628211 + uint64(kv.V)
						}
						return h
					}
			},
		},
	}
}

// maxChaosShards bounds the fixed-size per-shard arrays below; chaosResult
// must stay ==-comparable, so slices are out.
const maxChaosShards = 8

// chaosResult is everything one chaos execution observes.
type chaosResult struct {
	Answer      uint64
	Elapsed     sim.Time
	Fabric      netmodel.Stat
	Plan        fault.Counters
	RT          core.RuntimeStats
	Stalls      int64
	Failovers   int64                    // replica-served reads across all shards
	ResyncPages int64                    // pages replayed by shard recoveries
	ShardStalls int64                    // accesses with no usable replica
	Handoffs    int64                    // hinted-handoff records enqueued (partition-caused)
	Replays     int64                    // hinted records delivered after link heals
	Repairs     int64                    // stale copies read-repaired before serving
	StaleCaught int64                    // reads that would have served stale bytes
	QuorumStall int64                    // writes/reads stalled below their quorum
	ShardDown   [maxChaosShards]sim.Time // per-shard downtime through the run
}

// runChaos executes one workload on the TELEPORT platform under the named
// fault profile.
func runChaos(t *testing.T, w chaosWorkload, profName string, seed int64) chaosResult {
	t.Helper()
	prof, err := fault.ByName(profName)
	if err != nil {
		t.Fatalf("ByName(%q): %v", profName, err)
	}
	cfg := ddc.BaseDDC(1 << 20)
	switch {
	case prof.LinkMeanUp > 0 || prof.SplitMeanUp > 0:
		// Partition profiles need links to sever and a write quorum to
		// defend: a 4-shard R=3 W=2 pool exercises quorum commit, hinted
		// handoff, anti-entropy, and read-repair under every profile.
		cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
	case prof.ShardMeanUp > 0:
		// Shard profiles need a multi-shard pool to have anything to
		// crash; replication keeps single-shard outages off the stall
		// path so answers still flow.
		cfg.PoolShards, cfg.Replicas = 4, 2
	}
	m := ddc.MustMachine(cfg)
	m.AttachTrace(trace.New(512))
	if prof.Name != "none" {
		m.AttachFault(fault.NewPlan(prof, seed))
	}
	p := m.NewProcess()
	th := sim.NewThread(w.name)
	runFn, ansFn := w.build(p, th)
	// Small cache and a bounded pool keep all three fault surfaces busy:
	// remote faults on the fabric, storage in-faults on the SSD.
	ws := p.Space.Allocated()
	p.ResizeCache(cacheBytes(ws, 0.02))
	p.ResizePool(ws / 2)

	rt := core.NewRuntime(p, 1)
	ex := profile.NewExec(th, p, rt)
	ex.Push(w.push...)
	runFn(ex)

	res := chaosResult{
		Answer:  ansFn(),
		Elapsed: ex.Total(),
		Fabric:  m.Fabric.Total(),
		Plan:    m.Fault.Counters(),
		RT:      rt.Stats(),
		Stalls:  m.PoolStalls,
	}
	for s := 0; s < max(len(m.ShardStats), 1) && s < maxChaosShards; s++ {
		if m.ShardStats != nil {
			st := m.ShardStats[s]
			res.Failovers += st.FailoverReads
			res.ResyncPages += st.ResyncPages
			res.ShardStalls += st.Stalls
			res.Handoffs += st.HandoffRecords
			res.Replays += st.HandoffReplays
			res.Repairs += st.ReadRepairs
			res.StaleCaught += st.StaleReadsAverted
			res.QuorumStall += st.QuorumStalls
		}
		res.ShardDown[s] = m.Fault.Downtime(th.Now(), fault.Shard(s))
	}
	return res
}

// Faults must never change answers: every profile yields the fault-free
// answer bit for bit, for every system.
func TestChaosAnswersMatchFaultFree(t *testing.T) {
	injectedBy := map[string]int64{}
	for _, w := range chaosWorkloads() {
		baseline := runChaos(t, w, "none", 99)
		for _, prof := range fault.ProfileNames() {
			got := runChaos(t, w, prof, 99)
			if got.Answer != baseline.Answer {
				t.Errorf("%s under %q: answer %#x, fault-free %#x", w.name, prof, got.Answer, baseline.Answer)
			}
			injectedBy[prof] += got.Plan.Drops + got.Plan.Spikes + got.Plan.CtxCrashes +
				got.Plan.CtxMidCrashes + got.Plan.SSDReadErrors + got.Plan.PoolWindows +
				got.Plan.ShardWindows + got.Plan.LinkWindows + got.Plan.SplitWindows
		}
	}
	// Every profile must have actually injected faults somewhere, or the
	// answer comparison proves nothing.
	for prof, n := range injectedBy {
		if n == 0 {
			t.Errorf("profile %q injected no faults across the whole suite", prof)
		}
	}
}

// Determinism: two runs with the same chaos seed are identical in every
// observable — answer, virtual-time total, injection and recovery counters.
func TestChaosSameSeedBitIdentical(t *testing.T) {
	for _, w := range chaosWorkloads() {
		a := runChaos(t, w, "chaos", 7)
		b := runChaos(t, w, "chaos", 7)
		if a != b {
			t.Errorf("%s: same-seed chaos runs differ:\n  a=%+v\n  b=%+v", w.name, a, b)
		}
		c := runChaos(t, w, "chaos", 8)
		if a.Elapsed == c.Elapsed && a.Plan == c.Plan {
			t.Errorf("%s: different chaos seeds produced identical timing and injection", w.name)
		}
		if a.Answer != c.Answer {
			t.Errorf("%s: chaos seed changed the answer: %#x vs %#x", w.name, a.Answer, c.Answer)
		}
	}
}

// The public API: a chaos run through RunWorkload carries a fault report,
// and two same-seed invocations report identical virtual time and counters.
func TestRunWorkloadChaosReport(t *testing.T) {
	opts := Options{Scale: 0.5, GraphNV: 8000, Words: 30000, Seed: 1,
		CacheFrac: 0.02, ChaosProfile: "chaos", ChaosSeed: 7}
	a, err := RunWorkload("Q6", "teleport", opts)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if a.Fault == nil {
		t.Fatalf("chaos run returned no fault report")
	}
	if a.Fault.Profile != "chaos" || a.Fault.Seed != 7 {
		t.Fatalf("fault report header = %s/%d, want chaos/7", a.Fault.Profile, a.Fault.Seed)
	}
	b, err := RunWorkload("Q6", "teleport", opts)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if a.Nanos != b.Nanos {
		t.Errorf("same-seed chaos runs differ in time: %dns vs %dns", a.Nanos, b.Nanos)
	}
	if a.Nanos <= 0 {
		t.Errorf("Nanos = %d, want > 0", a.Nanos)
	}
	// FaultReport holds a per-shard slice, so compare the rendered form.
	if a.Fault.String() != b.Fault.String() {
		t.Errorf("same-seed chaos runs differ in fault report:\n  a=%+v\n  b=%+v", *a.Fault, *b.Fault)
	}

	if _, err := RunWorkload("Q6", "teleport", Options{Scale: 0.5, Seed: 1, ChaosProfile: "no-such-profile"}); err == nil {
		t.Errorf("unknown chaos profile accepted")
	}

	clean, err := RunWorkload("Q6", "teleport", Options{Scale: 0.5, Seed: 1, CacheFrac: 0.02})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if clean.Fault != nil {
		t.Errorf("fault report present without a chaos profile")
	}
}

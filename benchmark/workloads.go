package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"

	"teleport/internal/bench"
	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/graph"
	"teleport/internal/mapreduce"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
)

// sizes are the input sizes of every workload. There are two sets: the
// benchmark's, and a smoke set small enough for `go test`.
type sizes struct {
	name string

	olapScale  float64
	spillScale float64
	graphNV    int
	words      int
	pushCalls  int // pushdown (a) and (b): calls each
	pushOps    int // pushdown (c): memory-thread accesses
	chaosNV    int
	chaosScale float64
	cluster    struct {
		scale            float64
		machines, rounds int
	}
	suite bench.Options
	// suiteFigures are the figures the suite regenerates; nil means every
	// registered one. Several figures have fixed inputs that ignore
	// bench.Options, so the smoke sizes pick three that scale.
	suiteFigures []string

	// kernelDiv shortens the calibration kernel by this factor.
	kernelDiv int
	// probeNs is how long each unit-cost loop runs at least.
	probeNs int64
}

func fullSizes() sizes {
	sz := sizes{
		name:      "full",
		olapScale: 2, spillScale: 1,
		graphNV: 40000, words: 250000,
		pushCalls: 4000, pushOps: 50000,
		chaosNV: 40000, chaosScale: 2,
		suite:   bench.Options{Scale: 0.25, GraphNV: 8000, Words: 30000, CacheFrac: 0.02, Parallel: 1, SimWorkers: 1},
		probeNs: 200_000_000, kernelDiv: 1,
	}
	sz.cluster.scale, sz.cluster.machines, sz.cluster.rounds = 1, 32, 4
	return sz
}

func smokeSizes() sizes {
	sz := sizes{
		name:      "smoke",
		olapScale: 0.1, spillScale: 0.1,
		graphNV: 2000, words: 10000,
		pushCalls: 100, pushOps: 2000,
		chaosNV: 2000, chaosScale: 0.1,
		suite:        bench.Options{Scale: 0.02, GraphNV: 600, Words: 2000, CacheFrac: 0.02, Parallel: 1, SimWorkers: 1},
		suiteFigures: []string{"3", "13", "15"},
		probeNs:      2_000_000, kernelDiv: 20,
	}
	sz.cluster.scale, sz.cluster.machines, sz.cluster.rounds = 0.05, 8, 2
	return sz
}

// simWorkers is the worker count of the cluster workload's parallel run.
func simWorkers() int {
	if n := runtime.NumCPU(); n < 8 {
		return n
	}
	return 8
}

// The §7.1 operator sets TELEPORT pushes per query (bench keeps its copies
// unexported).
var (
	q9Push = []string{tpch.OpProjection, tpch.OpHashJoin, tpch.OpMergeJoin, tpch.OpExpression}
	q3Push = []string{tpch.OpSelection, tpch.OpHashJoin, tpch.OpExpression, tpch.OpGroup}
	q6Push = []string{tpch.OpSelection, tpch.OpExpression}
)

// query is one TPC-H query with its push set and a checksum of its answer.
type query struct {
	name string
	push []string
	run  func(ex *profile.Exec, d *tpch.Data) uint64
}

var queries = []query{
	{"Q9", q9Push, func(ex *profile.Exec, d *tpch.Data) uint64 { return hashRows(tpch.Q9(ex, d, tpch.GreenPart)) }},
	{"Q3", q3Push, func(ex *profile.Exec, d *tpch.Data) uint64 { return hashRows(tpch.Q3(ex, d, 0, 1100)) }},
	{"Q6", q6Push, func(ex *profile.Exec, d *tpch.Data) uint64 { return math.Float64bits(tpch.Q6(ex, d, 730)) }},
}

const fnvPrime = 1099511628211

func hashRows(rows []coldb.GroupRow) uint64 {
	h := uint64(len(rows))
	for _, r := range rows {
		h = h*fnvPrime + uint64(r.Key)
		h = h*fnvPrime + math.Float64bits(r.Sum)
		h = h*fnvPrime + uint64(r.Count)
	}
	return h
}

// minPages is the floor bench applies to every bounded memory: below a
// handful of pages a platform is thrashing noise.
const minPages = 48

func boundedBytes(workingSet int64, frac float64) int64 {
	b := int64(float64(workingSet) * frac)
	if min := int64(minPages * mem.PageSize); b < min {
		b = min
	}
	return b
}

// platform describes the machine a run builds.
type platform struct {
	name                     string // local, linux-ssd, base-ddc, teleport
	shards, replicas, quorum int
	chaos                    string // fault profile name, "" for none
	chaosSeed                int64  // seed of the fault plan
}

// label names the platform in a run's name.
func (pl platform) label() string {
	if pl.chaos == "" {
		return pl.name
	}
	return pl.name + "/" + pl.chaos
}

// instance is one freshly built machine with one process and one driving
// thread, as bench's figure runner builds for every data point.
type instance struct {
	plat platform
	m    *ddc.Machine
	p    *ddc.Process
	th   *sim.Thread
	rt   *core.Runtime
	ex   *profile.Exec
	sch  *sim.Scheduler // set by runs that schedule threads
}

// build constructs the machine and process of plat.
func (r *round) build(plat platform) *instance {
	in := &instance{plat: plat}
	r.span("ddc.machine_build", func() {
		var cfg ddc.Config
		switch plat.name {
		case "local":
			cfg = ddc.Linux()
		case "linux-ssd":
			cfg = ddc.LinuxSSD(1 << 20)
		default:
			cfg = ddc.BaseDDC(1 << 20)
			cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = plat.shards, plat.replicas, plat.quorum
		}
		in.m = ddc.MustMachine(cfg)
		if plat.chaos != "" {
			prof, err := fault.ByName(plat.chaos)
			if err != nil {
				panic(err)
			}
			r.span("fault.new_plan", func() { in.m.AttachFault(fault.NewPlan(prof, plat.chaosSeed)) })
		}
		in.p = in.m.NewProcess()
	})
	return in
}

// size bounds the compute cache (or a monolithic server's DRAM) and, when
// poolBytes > 0, the memory pool.
func (r *round) size(in *instance, cacheBytes, poolBytes int64) {
	r.span("ddc.resize", func() {
		in.p.ResizeCache(cacheBytes)
		if poolBytes > 0 {
			in.p.ResizePool(poolBytes)
		}
	})
}

// exec gives the instance its driving thread and operator executor; on
// teleport the named operators are pushed down.
func (r *round) exec(in *instance, name string, push []string) {
	in.th = sim.NewThread(name)
	if in.plat.name != "teleport" {
		in.ex = profile.NewExec(in.th, in.p, nil)
		return
	}
	r.span("core.new_runtime", func() { in.rt = core.NewRuntime(in.p, 1) })
	in.ex = profile.NewExec(in.th, in.p, in.rt)
	in.ex.Push(push...)
}

// counts reads every layer's counters off the instance.
func (in *instance) counts() counts {
	c := make(counts)
	ps := in.p.Stats()
	c["mem.pages"] = in.p.Space.Pages()
	c["ddc.cache_hits"] = ps.CacheHits
	c["ddc.cache_misses"] = ps.CacheMisses
	c["ddc.remote_faults"] = ps.RemoteFaults
	c["ddc.prefetched"] = ps.Prefetched
	c["ddc.writebacks"] = ps.Writebacks
	c["ddc.storage_in_faults"] = ps.StorageInFault
	c["ddc.storage_evicts"] = ps.StorageEvicts
	c["ddc.upgrades"] = ps.Upgrades
	for _, st := range in.m.ShardStats {
		c["ddc.shard.failover_reads"] += st.FailoverReads
		c["ddc.shard.handoffs"] += st.HandoffRecords
	}
	tot := in.m.Fabric.Total()
	c["netmodel.msgs"] = tot.Msgs
	c["netmodel.bytes_mb"] = tot.Bytes // scaled to MB when reported
	c["netmodel.retries"] = tot.Retries
	ssd := in.m.SSD.Stats()
	c["storage.reads"] = ssd.Reads
	c["storage.seq_reads"] = ssd.SeqReads
	c["storage.writes"] = ssd.Writes
	if in.rt != nil {
		rs := in.rt.Stats()
		c["core.calls"] = rs.Calls
		c["core.coherence_msgs"] = rs.CoherenceMsgs
		c["core.compute_faults"] = rs.ComputeFaults
		c["core.retries"] = rs.Retries
		c["core.local_fallbacks"] = rs.LocalFallbacks
		c["core.rollbacks"] = rs.Rollbacks
		c["core.rolled_back_pages"] = rs.RolledBackPages
		c["core.breaker_opens"] = rs.BreakerOpens
	}
	if in.m.Fault != nil {
		fc := in.m.Fault.Counters()
		c["fault.injected"] = fc.Drops + fc.Corruptions + fc.Spikes + fc.CtxCrashes + fc.CtxMidCrashes + fc.SSDReadErrors
	}
	if in.sch != nil {
		c["sim.switches"] = in.sch.Switches()
	}
	return c
}

// tpchRun sets up and runs query q at scale on plat. cacheFrac sizes the
// compute cache (or linux-ssd's DRAM) and poolFrac, when positive, the
// memory pool, both as shares of the loaded database.
func (r *round) tpchRun(q query, scale float64, plat platform, cacheFrac, poolFrac float64) {
	var in *instance
	var d *tpch.Data
	r.setup(func() {
		in = r.build(plat)
		r.span("tpch.load", func() {
			d = tpch.Load(coldb.NewDB(in.p), tpch.Config{Scale: scale, Seed: r.h.seed})
		})
		ws := in.p.Space.Allocated()
		var pool int64
		if poolFrac > 0 {
			pool = boundedBytes(ws, poolFrac)
		}
		r.size(in, boundedBytes(ws, cacheFrac), pool)
		r.exec(in, q.name, q.push)
	})
	var answer uint64
	r.run(runMeta{name: q.name + "/" + plat.label(), plat: plat.name, key: q.name, span: "tpch." + strings.ToLower(q.name)},
		func() error { answer = q.run(in.ex, d); return nil },
		func() (outcome, error) {
			return outcome{virtNs: int64(in.ex.Total()), answer: answer, counts: in.counts()}, nil
		})
}

func olapWorkload() *workload {
	return &workload{
		name: "olap",
		why:  "TPC-H Q9/Q3/Q6 on local, base-ddc and teleport with a 2% cache: coldb operators over the Env hit path; no scheduler, faults or SSD",
		body: func(r *round) {
			for _, q := range queries {
				for _, plat := range []string{"local", "base-ddc", "teleport"} {
					r.tpchRun(q, r.h.sz.olapScale, platform{name: plat}, 0.02, 0)
				}
			}
		},
	}
}

func spillWorkload() *workload {
	return &workload{
		name: "spill",
		why:  "Q9 with total memory bounded to 0.5% of the data (Fig 15's 1 GB row): storage.SSD reads and pool eviction do most of the work",
		body: func(r *round) {
			q := queries[0]
			r.tpchRun(q, r.h.sz.spillScale, platform{name: "linux-ssd"}, 0.005, 0)
			r.tpchRun(q, r.h.sz.spillScale, platform{name: "base-ddc"}, 0.02, 0.005)
			r.tpchRun(q, r.h.sz.spillScale, platform{name: "teleport"}, 0.02, 0.005)
		},
	}
}

// graphCache is bench's fixed graph cache: slightly more than the hot
// vertex state, so edge scans and message scatters miss.
const graphCache = 540 << 10

// ssspRun sets up and runs SSSP on plat over the nv-vertex graph of seed.
func (r *round) ssspRun(nv int, seed int64, plat platform) {
	var in *instance
	var eng *graph.Engine
	r.setup(func() {
		in = r.build(plat)
		r.span("graph.generate", func() {
			g, _ := graph.Generate(in.p, graph.GenConfig{NV: nv, AvgDegree: 6, Seed: seed})
			eng = graph.NewEngine(g, graph.SSSP(0), 4)
		})
		r.size(in, graphCache, 0)
		r.exec(in, "SSSP", []string{graph.OpFinalize, graph.OpScatter, graph.OpGather})
	})
	r.run(runMeta{name: "SSSP/" + plat.label(), plat: plat.name, key: "SSSP", span: "graph.run", seed: seed},
		func() error { eng.Run(in.ex); return nil },
		func() (outcome, error) {
			out := outcome{virtNs: int64(in.ex.Total()), counts: in.counts()}
			// Reading the values goes through the paging model, so the
			// counters above were read first.
			env := in.p.NewEnv(sim.NewThread("check"))
			for v := 0; v < nv; v++ {
				out.answer = out.answer*fnvPrime + uint64(eng.Value(env, v))
			}
			return out, nil
		})
}

func (r *round) wordCountRun(words int, plat platform) {
	var in *instance
	var eng *mapreduce.Engine
	r.setup(func() {
		in = r.build(plat)
		r.span("mapreduce.generate", func() {
			c, _ := mapreduce.GenerateCorpus(in.p, mapreduce.CorpusConfig{Words: words, Vocab: 4000, Seed: r.h.seed})
			eng = mapreduce.NewEngine(c, mapreduce.WordCount{}, 4, 8)
		})
		r.size(in, boundedBytes(in.p.Space.Allocated(), 0.02), 0)
		r.exec(in, "WC", []string{mapreduce.OpMapShuffle})
	})
	r.run(runMeta{name: "WC/" + plat.name, plat: plat.name, key: "WC", span: "mapreduce.run"},
		func() error { eng.Run(in.ex); return nil },
		func() (outcome, error) {
			out := outcome{virtNs: int64(in.ex.Total()), counts: in.counts()}
			for _, kv := range eng.Results() {
				out.answer = out.answer*fnvPrime + uint64(kv.K)
				out.answer = out.answer*fnvPrime + uint64(kv.V)
			}
			return out, nil
		})
}

func graphMRWorkload() *workload {
	return &workload{
		name: "graph-mr",
		why:  "SSSP on a power-law graph and WordCount, base-ddc and teleport: random access at a high miss ratio drives the ddc fault path and a netmodel message per miss",
		body: func(r *round) {
			for _, plat := range []string{"base-ddc", "teleport"} {
				r.ssspRun(r.h.sz.graphNV, r.h.seed, platform{name: plat})
			}
			for _, plat := range []string{"base-ddc", "teleport"} {
				r.wordCountRun(r.h.sz.words, platform{name: plat})
			}
		},
	}
}

// chaosScenarioSeed pins the chaos workload's fault plans, and the graph of
// its SSSP run. What a partition plan costs the host is a chaotic function of
// graph and plan — across seeds 1–16 the SSSP run's allocations spanned
// 310 k–740 k, nearly all from one quorum gate that allocates per page written
// while a link is down — and Q9, whose data follows --seed, meets a crash
// window of a seed-following plan at about one seed in twenty (+74%
// allocations). A median over seeds would measure the draw, not the code. The
// SSSP run is therefore the same at every seed, and checked against
// golden.json at every seed.
const chaosScenarioSeed = goldenSeed

func chaosWorkload() *workload {
	sssp := platform{name: "teleport", shards: 4, replicas: 3, quorum: 2, chaos: "partition-chaos", chaosSeed: chaosScenarioSeed}
	return &workload{
		name: "chaos",
		why:  "SSSP on a 4-shard R=3 W=2 pool under partition-chaos and Q9 under chaos: fault plans, quorum/handoff/failover, retry/rollback/breaker and retransmission run only here",
		// The fault-free answers, from the monolithic platform.
		prepare: func(h *harness) map[string]uint64 {
			r := &round{h: h, expect: make(map[string]uint64)}
			r.ssspRun(h.sz.chaosNV, chaosScenarioSeed, platform{name: "local"})
			r.tpchRun(queries[0], h.sz.chaosScale, platform{name: "local"}, 0.02, 0)
			for _, s := range r.runs {
				if s.failure != "" {
					panic("chaos: fault-free reference failed: " + s.failure)
				}
			}
			return r.expect
		},
		body: func(r *round) {
			r.ssspRun(r.h.sz.chaosNV, chaosScenarioSeed, sssp)
			r.tpchRun(queries[0], r.h.sz.chaosScale, platform{name: "teleport", chaos: "chaos", chaosSeed: chaosScenarioSeed}, 0.02, 0)
		},
	}
}

// Pushdown workload: core's exported calls on the §4 microbenchmark's
// memory shape — an array larger than the compute cache, fully dirty.
const (
	pushArrayPages   = 1792
	pushCachePages   = 1500
	pushScratchPages = 320
	pushSharedPages  = 8
	pushComputeOps   = 9_500_000 // ≈4.5 ms at 2.1 GHz
	pushWordsPerCall = 4
	lcgMul           = 6364136223846793005
)

type pushState struct {
	in                     *instance
	array, scratch, shared mem.Addr
}

// pushBuild builds the machine, allocates the regions and warms the cache
// so that it holds a dirty working set, as an application that has been
// running would.
func (r *round) pushBuild(plat string) *pushState {
	st := &pushState{}
	r.setup(func() {
		st.in = r.build(platform{name: plat})
		in := st.in
		st.array = in.p.Space.AllocPages(pushArrayPages*mem.PageSize, "push.array")
		st.scratch = in.p.Space.AllocPages(pushScratchPages*mem.PageSize, "push.scratch")
		st.shared = in.p.Space.AllocPages(pushSharedPages*mem.PageSize, "push.shared")
		r.size(in, pushCachePages*mem.PageSize, 0)
		in.th = sim.NewThread("push")
		if plat == "teleport" {
			r.span("core.new_runtime", func() { in.rt = core.NewRuntime(in.p, 2) })
		}
		r.span("push.warm", func() {
			env := in.p.NewEnv(sim.NewThread("warm"))
			for pg := 0; pg < pushArrayPages; pg++ {
				env.WriteI64(st.array+mem.Addr(pg)*mem.PageSize, int64(pg))
			}
			for pg := 0; pg < pushScratchPages; pg++ {
				env.WriteI64(st.scratch+mem.Addr(pg)*mem.PageSize, 1)
			}
		})
	})
	return st
}

// call runs fn pushed down on teleport and compute-side elsewhere.
func (st *pushState) call(r *round, env *ddc.Env, fn core.Func) error {
	if st.in.rt == nil {
		fn(env)
		return nil
	}
	var err error
	r.span("core.pushdown", func() {
		_, err = st.in.rt.Pushdown(st.in.th, fn, core.Options{})
	})
	return err
}

// arrayChecksum hashes the array's bytes straight from the address space.
func (st *pushState) arrayChecksum() uint64 {
	var h uint64
	for off := mem.Addr(0); off < pushArrayPages*mem.PageSize; off += 8 {
		h = h*fnvPrime + st.in.p.Space.ReadU64(st.array+off)
	}
	return h
}

func (st *pushState) outcome() (outcome, error) {
	return outcome{virtNs: int64(st.in.th.Now()), answer: st.arrayChecksum(), counts: st.in.counts()}, nil
}

// pushCallsRun is parts (a) and (b): calls pushdowns in a row from one
// thread, each touching four random words, one per quarter of the array.
// Read-only calls sum them while the compute side dirties a scratch page
// between calls; writing calls store to them and the compute side reads the
// stores back.
func (r *round) pushCallsRun(plat string, write bool) {
	st := r.pushBuild(plat)
	kind := "ro"
	if write {
		kind = "rw"
	}
	calls := r.h.sz.pushCalls
	const quarter = pushArrayPages * mem.PageSize / 8 / pushWordsPerCall
	r.run(runMeta{name: kind + "/" + plat, plat: plat, key: kind, span: "push." + kind},
		func() error {
			env := st.in.p.NewEnv(st.in.th)
			x := uint64(r.h.seed)*2654435761 + 0x9E3779B97F4A7C15
			var addrs [pushWordsPerCall]mem.Addr
			var sum int64
			for i := 0; i < calls; i++ {
				for j := range addrs {
					x = x*lcgMul + 1
					addrs[j] = st.array + mem.Addr(uint64(j)*quarter+(x>>11)%quarter)*8
				}
				if !write {
					x = x*lcgMul + 1
					env.WriteI64(st.scratch+mem.Addr((x>>11)%(mem.PageSize/8))*8, int64(i))
					err := st.call(r, env, func(env *ddc.Env) {
						for _, a := range addrs {
							sum += env.ReadI64(a)
						}
					})
					if err != nil {
						return err
					}
					continue
				}
				v := int64(i) * pushWordsPerCall
				err := st.call(r, env, func(env *ddc.Env) {
					for j, a := range addrs {
						env.WriteI64(a, v+int64(j))
					}
				})
				if err != nil {
					return err
				}
				for j, a := range addrs {
					if got := env.ReadI64(a); got != v+int64(j) {
						return fmt.Errorf("call %d word %d: compute side read %d, pushed function wrote %d", i, j, got, v+int64(j))
					}
				}
			}
			// The sum lands in the array so that the checksum covers what
			// the read-only calls saw.
			env.WriteI64(st.array, sum)
			return nil
		},
		st.outcome)
}

// pushSchedRun is part (c): the §4 two-thread shape under sim.Scheduler — a
// memory-intensive thread (pushed down on teleport) and a compute thread
// that stays in the compute pool, writing to a few shared pages at a low
// rate.
func (r *round) pushSchedRun(plat, label string, flags core.Flags) {
	st := r.pushBuild(plat)
	ops := r.h.sz.pushOps
	const contention = 0.0001 // 0.01% of operations touch a shared page
	r.run(runMeta{name: "sched/" + label, plat: plat, key: "sched", span: "sim.run"},
		func() error {
			in := st.in
			const words = pushArrayPages * mem.PageSize / 8
			const sharedWords = pushSharedPages * mem.PageSize / 8
			memBody := func(env *ddc.Env) {
				x := uint64(r.h.seed) + 0x9E3779B97F4A7C15
				writes := ops / 5
				contEvery := int(1 / contention)
				for i := 0; i < ops; i++ {
					x = x*lcgMul + 1
					addr := st.array + mem.Addr(x%words)*8
					switch {
					case i%contEvery == 0:
						env.WriteI64(st.shared+mem.Addr(x%sharedWords)*8, int64(i))
					case i < writes:
						env.WriteI64(addr, int64(i))
					default:
						env.ReadI64(addr)
					}
				}
			}
			computeBody := func(env *ddc.Env) {
				x := uint64(7)
				for i := 0; i < 100; i++ {
					env.Compute(pushComputeOps / 100)
					x = x*2862933555777941757 + 3037000493
					env.WriteI64(st.scratch+mem.Addr(x%(pushScratchPages*mem.PageSize/8))*8, int64(i))
					for w := 0.0; w < contention*pushComputeOps/100; w++ {
						x = x*lcgMul + 1
						env.WriteI64(st.shared+mem.Addr(x%sharedWords)*8, int64(i))
					}
				}
			}
			s := sim.NewScheduler()
			s.SetQuantum(sim.Microsecond)
			in.sch = s
			var pushErr error
			s.Spawn("mem", 0, func(th *sim.Thread) {
				if in.rt == nil {
					memBody(in.p.NewEnv(th))
					return
				}
				_, pushErr = in.rt.Pushdown(th, memBody, core.Options{Flags: flags})
			})
			s.Spawn("cpu", 0, func(th *sim.Thread) { computeBody(in.p.NewEnv(th)) })
			in.th.AdvanceTo(s.Run())
			return pushErr
		},
		st.outcome)
}

func pushdownWorkload() *workload {
	return &workload{
		name: "pushdown",
		why:  "core's exported calls on a 1792-page array with a 1500-page cache: call set-up, resident-list marshalling, coherence and thread switching dominate; application compute is negligible",
		body: func(r *round) {
			for _, plat := range []string{"base-ddc", "teleport"} {
				r.pushCallsRun(plat, false)
			}
			for _, plat := range []string{"base-ddc", "teleport"} {
				r.pushCallsRun(plat, true)
			}
			r.pushSchedRun("base-ddc", "base-ddc", core.FlagDefault)
			r.pushSchedRun("teleport", "default", core.FlagDefault)
			r.pushSchedRun("teleport", "pso", core.FlagPSO)
		},
	}
}

// clusterSetup repeats, outside the timed region, the construction that
// bench.RunCluster performs inside it — machines, domains, partitions — so
// that setup_s is defined for this workload and follows the cost of
// building machines.
func clusterSetup(r *round, opts bench.Options, machines int) {
	rows := int(240000 * opts.Scale)
	if rows < 4096 {
		rows = 4096
	}
	s := sim.NewScheduler()
	var c *ddc.Cluster
	r.span("ddc.machine_build", func() {
		var err error
		c, err = ddc.NewCluster(s, machines, bench.ClusterSyncLatency, func(int) ddc.Config {
			return ddc.BaseDDC(boundedBytes(int64(rows)*8, 0.02))
		})
		if err != nil {
			panic(err)
		}
	})
	r.span("cluster.partitions", func() {
		for i, p := range c.Procs {
			rng := sim.NewRNG(opts.Seed).Derive(uint64(i + 1))
			a := p.Space.Alloc(int64(rows)*8, "partition")
			for row := 0; row < rows; row++ {
				p.Space.WriteU64(a+mem.Addr(row)*8, rng.Uint64()>>16)
			}
			p.ResizeCache(boundedBytes(p.Space.Allocated(), 0.02))
		}
	})
}

func clusterWorkload() *workload {
	return &workload{
		name: "cluster",
		why:  "bench.RunCluster, 32 machines × 4 supersteps, at 1 sim worker and at min(nproc,8): sim.Domain, the mailbox and window barriers; results must be equal",
		body: func(r *round) {
			cs := r.h.sz.cluster
			opts := bench.Options{Scale: cs.scale, Seed: r.h.seed, CacheFrac: 0.02, SimWorkers: 1}
			r.setup(func() { clusterSetup(r, opts, cs.machines) })
			var results []bench.ClusterResult
			for _, w := range []struct {
				label   string
				workers int
			}{{"workers=1", 1}, {"workers=nproc", simWorkers()}} {
				o := opts
				o.SimWorkers = w.workers
				var res bench.ClusterResult
				r.run(runMeta{name: w.label, key: "cluster", span: "bench.run_cluster"},
					func() (err error) { res, err = bench.RunCluster(o, cs.machines, cs.rounds); return err },
					func() (outcome, error) {
						results = append(results, res)
						if !reflect.DeepEqual(res, results[0]) {
							return outcome{}, fmt.Errorf("result differs from the 1-worker run: %+v vs %+v", res, results[0])
						}
						return outcome{
							virtNs: res.Nanos, answer: res.Sum,
							counts: counts{"sim.switches": res.Switches, "netmodel.msgs": res.SyncMsgs, "netmodel.retries": res.SyncRetries},
						}, nil
					})
			}
		},
	}
}

// suiteSetup generates, outside the timed region, the three datasets that
// the figures generate inside it (bench.Run loads its own data), so that
// setup_s is defined for this workload and follows the generators' cost.
func suiteSetup(r *round, opts bench.Options) {
	in := r.build(platform{name: "local"})
	r.span("tpch.load", func() { tpch.Load(coldb.NewDB(in.p), tpch.Config{Scale: opts.Scale, Seed: opts.Seed}) })
	r.span("graph.generate", func() {
		graph.Generate(in.p, graph.GenConfig{NV: opts.GraphNV, AvgDegree: 6, Seed: opts.Seed})
	})
	r.span("mapreduce.generate", func() {
		mapreduce.GenerateCorpus(in.p, mapreduce.CorpusConfig{Words: opts.Words, Vocab: 4000, Seed: opts.Seed})
	})
}

func suiteWorkload() *workload {
	return &workload{
		name:     "suite",
		why:      "bench.Run for every registered figure, sequentially: what regenerating the paper's figures costs, and the only place harness-level changes can show",
		everyNth: 4,
		body: func(r *round) {
			opts := r.h.sz.suite
			opts.Seed = r.h.seed
			r.setup(func() { suiteSetup(r, opts) })
			for _, id := range r.h.sz.figures() {
				var tab *bench.Table
				r.run(runMeta{name: "fig" + id, span: "bench.fig" + id},
					func() (err error) { tab, err = bench.Run(id, opts); return err },
					func() (outcome, error) {
						var buf bytes.Buffer
						tab.Fprint(&buf)
						sum := sha256.Sum256(buf.Bytes())
						return outcome{answer: binary.BigEndian.Uint64(sum[:8])}, nil
					})
			}
		},
	}
}

func (sz sizes) figures() []string {
	if sz.suiteFigures != nil {
		return sz.suiteFigures
	}
	return bench.Figures()
}

// allWorkloads returns the seven workloads in reporting order.
func allWorkloads() []*workload {
	return []*workload{
		suiteWorkload(), olapWorkload(), spillWorkload(), graphMRWorkload(),
		pushdownWorkload(), chaosWorkload(), clusterWorkload(),
	}
}

package bench

import (
	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/graph"
	"teleport/internal/hw"
	"teleport/internal/mapreduce"
	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
	"teleport/internal/trace"
)

// workload is one of the paper's eight evaluation workloads (Figure 3 /
// Figure 13): three TPC-H queries on the columnar DBMS, three graph
// queries, two MapReduce jobs.
type workload struct {
	Name   string
	System string
	// PushOps is the operator set TELEPORT pushes for this workload
	// (§5's per-system choices).
	PushOps []string
	// CacheFrac overrides the default compute-cache fraction and
	// CacheBytes overrides it absolutely (the graph workloads pin the
	// scaled equivalent of the paper's 1 GB: slightly more than the hot
	// vertex state, so the edge scans and message scatters miss — the
	// regime PowerGraph sits in on the testbed).
	CacheFrac  float64
	CacheBytes int64
	// Build loads the dataset into p and returns the query runner.
	Build func(p *ddc.Process, opts Options) func(ex *profile.Exec)
}

func tpchWorkload(name string, pushOps []string, run func(ex *profile.Exec, d *tpch.Data)) workload {
	return workload{
		Name: name, System: "coldb", PushOps: pushOps,
		Build: func(p *ddc.Process, opts Options) func(ex *profile.Exec) {
			d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: opts.Scale, Seed: opts.Seed})
			return func(ex *profile.Exec) { run(ex, d) }
		},
	}
}

func graphWorkload(name string, prog func(opts Options) graph.Program, undirected bool) workload {
	return workload{
		Name: name, System: "graph",
		PushOps:    []string{graph.OpFinalize, graph.OpScatter, graph.OpGather},
		CacheBytes: 540 << 10,
		Build: func(p *ddc.Process, opts Options) func(ex *profile.Exec) {
			g, _ := graph.Generate(p, graph.GenConfig{
				NV: opts.GraphNV, AvgDegree: 6, Seed: opts.Seed, Undirected: undirected,
			})
			eng := graph.NewEngine(g, prog(opts), 4)
			return func(ex *profile.Exec) { eng.Run(ex) }
		},
	}
}

func mrWorkload(name string, job func(opts Options) mapreduce.Job) workload {
	return workload{
		Name: name, System: "mapreduce",
		PushOps: []string{mapreduce.OpMapShuffle},
		Build: func(p *ddc.Process, opts Options) func(ex *profile.Exec) {
			c, _ := mapreduce.GenerateCorpus(p, mapreduce.CorpusConfig{
				Words: opts.Words, Vocab: 4000, Seed: opts.Seed,
			})
			eng := mapreduce.NewEngine(c, job(opts), 4, 8)
			return func(ex *profile.Exec) { eng.Run(ex) }
		},
	}
}

// dbPush are the bandwidth-intensive operator sets §7.1 pushes per query.
var (
	q9Push = []string{tpch.OpProjection, tpch.OpHashJoin, tpch.OpMergeJoin, tpch.OpExpression}
	q3Push = []string{tpch.OpSelection, tpch.OpHashJoin, tpch.OpExpression, tpch.OpGroup}
	q6Push = []string{tpch.OpSelection, tpch.OpExpression}
)

// allWorkloads returns the eight Figure 3/13 workloads.
func allWorkloads() []workload {
	return []workload{
		tpchWorkload("Q9", q9Push, func(ex *profile.Exec, d *tpch.Data) {
			tpch.Q9(ex, d, tpch.GreenPart)
		}),
		tpchWorkload("Q3", q3Push, func(ex *profile.Exec, d *tpch.Data) {
			tpch.Q3(ex, d, 0, 1100)
		}),
		tpchWorkload("Q6", q6Push, func(ex *profile.Exec, d *tpch.Data) {
			tpch.Q6(ex, d, 730)
		}),
		graphWorkload("SSSP", func(Options) graph.Program { return graph.SSSP(0) }, false),
		graphWorkload("RE", func(Options) graph.Program { return graph.Reachability(0) }, false),
		graphWorkload("CC", func(Options) graph.Program { return graph.CC() }, true),
		mrWorkload("WC", func(Options) mapreduce.Job { return mapreduce.WordCount{} }),
		mrWorkload("Grep", func(Options) mapreduce.Job { return mapreduce.Grep{Pattern: "w1 ", Buckets: 64} }),
	}
}

// extraWorkloads are available through the public API (cmd/ddcsim) beyond
// the paper's evaluation set: Q_filter and Q1 on the DBMS, PageRank on the
// graph engine.
func extraWorkloads() []workload {
	return []workload{
		tpchWorkload("QFilter", []string{tpch.OpSelection, tpch.OpProjection, tpch.OpAggregation},
			func(ex *profile.Exec, d *tpch.Data) { tpch.QFilter(ex, d, 1460) }),
		tpchWorkload("Q1", []string{tpch.OpSelection, tpch.OpExpression, tpch.OpGroup},
			func(ex *profile.Exec, d *tpch.Data) { tpch.Q1(ex, d, 2400) }),
		graphWorkload("PR", func(opts Options) graph.Program {
			return graph.PageRank(10, opts.GraphNV)
		}, false),
	}
}

// publicWorkloads is the evaluation set plus the extras.
func publicWorkloads() []workload {
	return append(allWorkloads(), extraWorkloads()...)
}

// platform selects how a workload runs.
type platform int

const (
	platLocal    platform = iota // monolithic, unlimited DRAM
	platLinuxSSD                 // monolithic, capped DRAM, NVMe swap
	platBase                     // base DDC (LegoOS stand-in)
	platTeleport                 // base DDC + TELEPORT pushdown
)

// runSpec tweaks a single workload execution.
type runSpec struct {
	platform    platform
	cacheFrac   float64 // compute/local cache as fraction of the working set
	cacheBytes  int64   // absolute cache size (overrides cacheFrac when >0)
	poolFrac    float64 // memory pool DRAM fraction (0 = unbounded)
	memClock    float64 // memory-pool clock override (0 = testbed)
	contexts    int     // pushdown contexts (0 = 1)
	prefetch    *int    // base-DDC prefetch depth override (nil = preset)
	pushOps     []string
	pushFlags   core.Flags
	hwMut       func(*hw.Config)
	shards      int            // pool shards (0 = Options.PoolShards)
	replicas    int            // per-page copies (0 = Options.Replicas)
	writeQuorum int            // write quorum W (0 = Options.WriteQuorum)
	chaos       *fault.Profile // fault profile override (nil = Options.ChaosProfile)
	chaosSeed   int64          // seed override for the chaos plan (0 = Options)
}

// runOut is one execution's result.
type runOut struct {
	Time    sim.Time
	Profile []profile.OpStat
	Proc    *ddc.Process
	Exec    *profile.Exec
	RT      *core.Runtime
	// End is the driving thread's clock when the run finished (load +
	// query); downtime accounting clips fault windows to it.
	End sim.Time
	// Attr partitions the driving thread's query-phase time by component
	// (always collected; costs no virtual time).
	Attr metrics.Attribution
	// Reg is the metrics registry, non-nil when Options.Metrics is set.
	Reg *metrics.Registry
	// Rec is the flight recorder, non-nil when Options.IncidentEvents > 0.
	Rec *obs.Recorder
}

// traceCap resolves the event-ring capacity: the explicit TraceCap, or a
// default when profiling or the flight recorder needs a ring anyway.
func (o Options) traceCap() int {
	if o.TraceCap > 0 {
		return o.TraceCap
	}
	if o.Profiling || o.IncidentEvents > 0 {
		return defaultTraceCap
	}
	return 0
}

// defaultTraceCap sizes the implied event ring: large enough that the
// evaluation workloads profile without wraparound, small enough to stay
// cheap (each event is ~80 bytes).
const defaultTraceCap = 1 << 18

// run executes w under spec.
func run(w workload, opts Options, spec runSpec) runOut {
	if spec.cacheBytes == 0 {
		spec.cacheBytes = w.CacheBytes
	}
	if spec.cacheFrac == 0 {
		spec.cacheFrac = w.CacheFrac
	}
	if spec.cacheFrac == 0 {
		spec.cacheFrac = opts.CacheFrac
	}
	var cfg ddc.Config
	switch spec.platform {
	case platLocal:
		cfg = ddc.Linux()
	case platLinuxSSD:
		cfg = ddc.LinuxSSD(1 << 20) // resized to the working set below
	default:
		cfg = ddc.BaseDDC(1 << 20)
	}
	if spec.memClock > 0 {
		cfg.HW.MemoryClockGHz = spec.memClock
	}
	if spec.prefetch != nil && cfg.Disaggregated {
		cfg.PrefetchDepth = *spec.prefetch
	}
	if spec.hwMut != nil {
		spec.hwMut(&cfg.HW)
	}
	if cfg.Disaggregated {
		if cfg.PoolShards = spec.shards; cfg.PoolShards == 0 {
			cfg.PoolShards = opts.PoolShards
		}
		if cfg.Replicas = spec.replicas; cfg.Replicas == 0 {
			cfg.Replicas = opts.Replicas
		}
		if cfg.WriteQuorum = spec.writeQuorum; cfg.WriteQuorum == 0 {
			cfg.WriteQuorum = opts.WriteQuorum
		}
	}
	m := ddc.MustMachine(cfg)
	if cap := opts.traceCap(); cap > 0 {
		m.AttachTrace(trace.New(cap))
	}
	var reg *metrics.Registry
	if opts.Metrics || opts.Percentiles {
		reg = metrics.NewRegistry()
		reg.SetSampleCap(opts.ExactQuantiles)
		m.AttachMetrics(reg)
	}
	var rec *obs.Recorder
	if opts.IncidentEvents > 0 {
		rec = obs.NewRecorder(m.Trace, opts.IncidentEvents, m.CounterSource())
		m.Trace.SetObserver(rec.Observe)
	}
	chaosProf := fault.Profile{Name: "none"}
	if spec.chaos != nil {
		chaosProf = *spec.chaos
	} else if prof, err := fault.ByName(opts.ChaosProfile); err == nil {
		chaosProf = prof
	}
	if chaosProf.Name != "none" {
		seed := spec.chaosSeed
		if seed == 0 {
			seed = opts.ChaosSeed
		}
		if seed == 0 {
			seed = opts.Seed
		}
		m.AttachFault(fault.NewPlan(chaosProf, seed))
	}
	p := m.NewProcess()
	runFn := w.Build(p, opts)

	ws := p.Space.Allocated()
	if spec.cacheBytes > 0 {
		p.ResizeCache(spec.cacheBytes)
	} else {
		p.ResizeCache(cacheBytes(ws, spec.cacheFrac))
	}
	if spec.poolFrac > 0 {
		p.ResizePool(int64(float64(ws) * spec.poolFrac))
	}

	th := sim.NewThread(w.Name)
	var rt *core.Runtime
	ex := profile.NewExec(th, p, nil)
	if spec.platform == platTeleport {
		contexts := spec.contexts
		if contexts == 0 {
			contexts = 1
		}
		rt = core.NewRuntime(p, contexts)
		rt.QueueCap = opts.PushQueueCap
		if opts.BreakerThreshold > 0 {
			rt.Breaker.Threshold = opts.BreakerThreshold
		} else if opts.BreakerThreshold < 0 {
			rt.Breaker.Threshold = 0 // disabled
		}
		if opts.BreakerCooldown > 0 {
			rt.Breaker.Cooldown = opts.BreakerCooldown
		}
		ex = profile.NewExec(th, p, rt)
		push := spec.pushOps
		if push == nil {
			push = w.PushOps
		}
		ex.Push(push...)
		ex.PushFlags = spec.pushFlags
		ex.PushDeadline = opts.PushDeadline
	}
	attrBefore := *m.Times
	tstart := th.Now()
	runFn(ex)
	return runOut{
		Time: ex.Total(), Profile: ex.Profile(), Proc: p, Exec: ex, RT: rt,
		End: th.Now(),
		Attr: metrics.Attribution{
			TotalNs: int64(th.Now() - tstart),
			Comps:   m.Times.Sub(attrBefore),
		},
		Reg: reg,
		Rec: rec,
	}
}

// findWorkload returns a named workload.
func findWorkload(name string) workload {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w
		}
	}
	panic("bench: unknown workload " + name)
}

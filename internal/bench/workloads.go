package bench

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/graph"
	"teleport/internal/mapreduce"
	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
	"teleport/internal/trace"
)

// workload is what one data point runs: one of the paper's eight evaluation
// workloads (Figure 3 / Figure 13) — three TPC-H queries on the columnar
// DBMS, three graph queries, two MapReduce jobs — or a figure's own
// (ParAgg, the §4 microbenchmark, Fig 20's pushdown call).
type workload struct {
	// Name is the workload's identity: two workloads of one name build and
	// run the same thing under the same options (the memo of cells keys on
	// it), so a parameter of a constructor is part of the name (parAgg,
	// microbench, pushCall).
	Name   string
	System string
	// PushOps is the operator set TELEPORT pushes for this workload
	// (§5's per-system choices).
	PushOps []string
	// CacheBytes overrides the compute-cache fraction absolutely (the graph
	// workloads pin the scaled equivalent of the paper's 1 GB: slightly
	// more than the hot vertex state, so the edge scans and message
	// scatters miss — the regime PowerGraph sits in on the testbed; the
	// microbenchmark and Fig 20 size theirs in pages).
	CacheBytes int64
	// Build loads the dataset into p and returns the query runner, which
	// reports the bits of the query's scalar answer (0 when it has none).
	Build func(p *ddc.Process, opts Options) func(ex *profile.Exec) uint64
}

// The three dataset constructors are the package's one call site each of
// tpch.Load, graph.Generate and mapreduce.GenerateCorpus: every query, figure
// cell and public run that needs a dataset is a workload built on one of
// them, and DescribeDataset prints what they build. Each generates its dataset
// once per entry-point call (attach) and hands every caller a copy of the
// descriptor bound to the caller's process.
func loadTPCH(p *ddc.Process, opts Options) *tpch.Data {
	k := datasetKey{kind: "tpch", scale: opts.Scale, seed: opts.Seed}
	d := *attach(p, opts, k, func(b *ddc.Process) *tpch.Data {
		return tpch.Load(coldb.NewDB(b), tpch.Config{Scale: opts.Scale, Seed: opts.Seed})
	})
	db := *d.DB
	db.P, d.DB = p, &db
	return &d
}

func genGraph(p *ddc.Process, opts Options, undirected bool) *graph.Graph {
	k := datasetKey{kind: "graph", n: opts.GraphNV, seed: opts.Seed, undirected: undirected}
	g := *attach(p, opts, k, func(b *ddc.Process) *graph.Graph {
		g, _ := graph.Generate(b, graph.GenConfig{
			NV: opts.GraphNV, AvgDegree: 6, Seed: opts.Seed, Undirected: undirected,
		})
		return g
	})
	g.P = p
	return &g
}

func genCorpus(p *ddc.Process, opts Options) *mapreduce.Corpus {
	k := datasetKey{kind: "corpus", n: opts.Words, seed: opts.Seed}
	c := *attach(p, opts, k, func(b *ddc.Process) *mapreduce.Corpus {
		c, _ := mapreduce.GenerateCorpus(b, mapreduce.CorpusConfig{
			Words: opts.Words, Vocab: 4000, Seed: opts.Seed,
		})
		return c
	})
	c.P = p
	return &c
}

func tpchWorkload(name string, pushOps []string, run func(ex *profile.Exec, d *tpch.Data) uint64) workload {
	return workload{
		Name: name, System: "coldb", PushOps: pushOps,
		Build: func(p *ddc.Process, opts Options) func(ex *profile.Exec) uint64 {
			d := loadTPCH(p, opts)
			return func(ex *profile.Exec) uint64 { return run(ex, d) }
		},
	}
}

func graphWorkload(name string, prog func(opts Options) graph.Program, undirected bool) workload {
	return workload{
		Name: name, System: "graph",
		PushOps:    []string{graph.OpFinalize, graph.OpScatter, graph.OpGather},
		CacheBytes: 540 << 10,
		Build: func(p *ddc.Process, opts Options) func(ex *profile.Exec) uint64 {
			eng := graph.NewEngine(genGraph(p, opts, undirected), prog(opts), 4)
			return func(ex *profile.Exec) uint64 { eng.Run(ex); return 0 }
		},
	}
}

func mrWorkload(name string, job func(opts Options) mapreduce.Job) workload {
	return workload{
		Name: name, System: "mapreduce",
		PushOps: []string{mapreduce.OpMapShuffle},
		Build: func(p *ddc.Process, opts Options) func(ex *profile.Exec) uint64 {
			eng := mapreduce.NewEngine(genCorpus(p, opts), job(opts), 4, 8)
			return func(ex *profile.Exec) uint64 { eng.Run(ex); return 0 }
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
		tpchWorkload("Q9", q9Push, func(ex *profile.Exec, d *tpch.Data) uint64 {
			tpch.Q9(ex, d, tpch.GreenPart)
			return 0
		}),
		tpchWorkload("Q3", q3Push, func(ex *profile.Exec, d *tpch.Data) uint64 {
			tpch.Q3(ex, d, 0, 1100)
			return 0
		}),
		tpchWorkload("Q6", q6Push, func(ex *profile.Exec, d *tpch.Data) uint64 {
			return math.Float64bits(tpch.Q6(ex, d, 730))
		}),
		graphWorkload("SSSP", func(Options) graph.Program { return graph.SSSP(0) }, false),
		graphWorkload("RE", func(Options) graph.Program { return graph.Reachability(0) }, false),
		graphWorkload("CC", func(Options) graph.Program { return graph.CC() }, true),
		mrWorkload("WC", func(Options) mapreduce.Job { return mapreduce.WordCount{} }),
		mrWorkload("Grep", func(Options) mapreduce.Job { return mapreduce.Grep{Pattern: "w1 ", Buckets: 64} }),
	}
}

// tpchQueries are the three TPC-H queries of the evaluation: Q9, Q3, Q6.
func tpchQueries() []workload { return allWorkloads()[:3] }

// qFilter is Q_filter pushing all three of its operators (Figure 12).
func qFilter() workload {
	return tpchWorkload("QFilter", tpch.QFilterOps, func(ex *profile.Exec, d *tpch.Data) uint64 {
		return math.Float64bits(tpch.QFilter(ex, d, 1460))
	})
}

// parAgg is the parallel aggregation of Figures 17 and A5: `workers`
// compute-pool threads sum lineitem.l_quantity, each Teleporting its
// partition when the platform has a runtime. The threads run under the
// aggregation's own scheduler, so the figures read that scheduler's makespan,
// not the driving thread's operator time: it is the workload's answer.
func parAgg(workers int) workload {
	return tpchWorkload(fmt.Sprintf("ParAgg%d", workers), nil, func(ex *profile.Exec, d *tpch.Data) uint64 {
		qty := d.DB.Table("lineitem").Col("l_quantity")
		_, span, err := coldb.ParallelAggregate(ex.P, ex.RT, workers, qty, coldb.AggSum)
		if err != nil {
			panic(err)
		}
		return uint64(span)
	})
}

// publicWorkloads is the evaluation set plus the extras available through
// the public API (cmd/ddcsim): Q_filter and Q1 on the DBMS, PageRank on the
// graph engine.
func publicWorkloads() []workload {
	return append(allWorkloads(),
		qFilter(),
		tpchWorkload("Q1", []string{tpch.OpSelection, tpch.OpExpression, tpch.OpGroup},
			func(ex *profile.Exec, d *tpch.Data) uint64 {
				tpch.Q1(ex, d, 2400)
				return 0
			}),
		graphWorkload("PR", func(opts Options) graph.Program {
			return graph.PageRank(10, opts.GraphNV)
		}, false))
}

// platform selects how a workload runs.
type platform int

const (
	platLocal    platform = iota // monolithic, unlimited DRAM
	platLinuxSSD                 // monolithic, capped DRAM, NVMe swap
	platBase                     // base DDC (LegoOS stand-in)
	platTeleport                 // base DDC + TELEPORT pushdown
)

// runSpec tweaks a single workload execution. It is a comparable value —
// overrides are declared, not programmed — so that it can key the memo of
// cells and the compiler keeps that key complete.
type runSpec struct {
	platform  platform
	cacheFrac float64 // compute/local cache as fraction of the working set
	poolFrac  float64 // memory pool DRAM fraction (0 = unbounded)
	memClock  float64 // memory-pool clock override (0 = testbed)
	memCores  int     // memory-pool core count override (0 = testbed)
	contexts  int     // pushdown contexts (0 = 1)

	netLatencyNs, netBandwidthGBs float64 // fabric override (0 = testbed)

	prefetch override[int]    // base-DDC prefetch depth
	pushOps  override[string] // pushed operator set, comma-joined (see pushing)

	// shards > 0 pins the pool topology for a figure that sweeps it
	// (A6/A7); otherwise the pool follows Options like every other cell.
	shards, replicas, writeQuorum int
	// chaos is a figure's ad-hoc fault profile (zero Name =
	// Options.ChaosProfile).
	chaos fault.Profile
}

// override is an optional value of a runSpec; the zero value keeps the preset.
type override[T comparable] struct {
	v   T
	set bool
}

func set[T comparable](v T) override[T] { return override[T]{v, true} }

// pushing overrides a workload's PushOps with ops; none pushes nothing.
func pushing(ops []string) override[string] { return set(strings.Join(ops, ",")) }

// runOut is one execution's result.
type runOut struct {
	Time    sim.Time
	Profile []profile.OpStat
	Proc    *ddc.Process
	RT      *core.Runtime
	// Answer is the bits of the query's scalar answer (0 when the workload
	// has none); the availability figures compare it across fault rates.
	Answer uint64
	// End is the driving thread's clock when the run finished (load +
	// query); downtime accounting clips fault windows to it.
	End sim.Time
	// Down is how long, up to End, any part of a pool pinned by
	// runSpec.shards — the controller, a shard or a directed link — was down
	// (0 for any other run). The run accounts it because accounting extends
	// the fault plan's schedules, and a finished cell is read, never changed.
	Down sim.Time
	// Comps partitions Time by component (always collected; costs no
	// virtual time).
	Comps metrics.TimeSet
	// Rec is the flight recorder, non-nil when Options.TraceCap > 0.
	Rec *obs.Recorder
	// Metrics is the end-of-run snapshot (nil unless a registry was attached).
	Metrics *metrics.Snapshot
}

// DefaultTraceCap sizes the event ring of a caller that needs one but names
// no capacity: large enough that the evaluation workloads profile without
// wraparound, small enough to stay cheap (each event is ~80 bytes).
const DefaultTraceCap = 1 << 18

// resolve is the one place options are validated and defaulted. Every entry
// point (Run, RunAll, RunWorkloads, Advise, RunCluster) calls it once and
// hands the copy to its data points: the chaos profile looked up — an
// unknown name is an error, not a fault-free run — the chaos seed defaulted
// to Seed, the pool topology checked against ddc's rules, the shared
// worker-token pool created when the options ask for parallelism, and the
// scope in which the call's figures share datasets and data points.
func (o Options) resolve() (Options, error) {
	prof, err := fault.ByName(o.ChaosProfile)
	if err != nil {
		return o, err
	}
	if prof.Name != "none" {
		o.chaos = &prof
	}
	if o.ChaosSeed == 0 {
		o.ChaosSeed = o.Seed
	}
	cfg := ddc.BaseDDC(1 << 20)
	o.setTopology(&cfg)
	if err := cfg.Validate(); err != nil {
		return o, err
	}
	if w := workersFor(o.Parallel); w > 1 && o.pool == nil {
		o.pool = make(chan struct{}, w)
	}
	if o.scope == nil {
		o.scope = &scope{}
	}
	return o, nil
}

// setTopology shapes a disaggregated config's memory pool as the options ask.
func (o Options) setTopology(cfg *ddc.Config) {
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = o.PoolShards, o.Replicas, o.WriteQuorum
}

// attachFault gives machine number i of a run its deterministic fault plan:
// prof seeded by the resolved chaos seed, offset per machine so the members
// of a cluster fail independently. A nil profile injects nothing.
func (o Options) attachFault(m *ddc.Machine, prof *fault.Profile, i int) {
	if prof != nil {
		m.AttachFault(fault.NewPlan(*prof, o.ChaosSeed+int64(i)*1000003))
	}
}

// prepare sets one data point up to run w under spec: resolved options +
// spec → ddc.Config → machine → observers → fault plan → process → dataset →
// cache/pool sizing → runtime → flight recorder. It returns the executor on a
// fresh driving thread, the query to run on it and the flight recorder (nil
// without a ring). Every figure data point and public run is set up here, so
// it is the one place a platform is assembled and each dataset loader has one
// call site.
func prepare(w workload, opts Options, spec runSpec) (*profile.Exec, func(*profile.Exec) uint64, *obs.Recorder) {
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
	if spec.memCores > 0 {
		cfg.HW.MemoryPoolCores = spec.memCores
	}
	if spec.prefetch.set && cfg.Disaggregated {
		cfg.PrefetchDepth = spec.prefetch.v
	}
	if spec.netLatencyNs > 0 {
		cfg.HW.NetLatencyNs = spec.netLatencyNs
	}
	if spec.netBandwidthGBs > 0 {
		cfg.HW.NetBandwidthGBs = spec.netBandwidthGBs
	}
	if spec.shards > 0 {
		cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = spec.shards, spec.replicas, spec.writeQuorum
	} else if cfg.Disaggregated {
		opts.setTopology(&cfg)
	}
	m := ddc.MustMachine(cfg)
	if opts.TraceCap > 0 {
		m.AttachTrace(trace.New(opts.TraceCap))
	}
	if opts.Metrics {
		m.AttachMetrics(metrics.NewRegistry())
	}
	prof := opts.chaos
	if spec.chaos.Name != "" {
		prof = &spec.chaos
	}
	opts.attachFault(m, prof, 0)
	p := opts.scope.share(m.NewProcess())
	query := w.Build(p, opts)

	ws := p.Space.Allocated()
	if w.CacheBytes > 0 {
		p.ResizeCache(w.CacheBytes)
	} else {
		p.ResizeCache(cacheBytes(ws, cmp.Or(spec.cacheFrac, opts.CacheFrac)))
	}
	if spec.poolFrac > 0 {
		p.ResizePool(int64(float64(ws) * spec.poolFrac))
	}

	ex := profile.NewExec(sim.NewThread(w.Name), p, nil)
	if spec.platform == platTeleport {
		rt := core.NewRuntime(p, cmp.Or(spec.contexts, 1))
		if opts.Policy != nil {
			rt.Policy = *opts.Policy
		}
		ex.RT = rt
		push := w.PushOps
		if spec.pushOps.set {
			push = strings.FieldsFunc(spec.pushOps.v, func(r rune) bool { return r == ',' })
		}
		ex.Push(push...)
	}
	var rec *obs.Recorder
	if opts.TraceCap > 0 {
		rec = obs.NewRecorder(m.Trace, obs.DefaultIncidentEvents, ex.ReadStats)
		m.Trace.SetObserver(rec.Observe)
	}
	return ex, query, rec
}

// run prepares w under spec, executes its query and releases the process's
// memory to the scope: of Proc, the counters, the caches' residency and what
// the space allocated stay readable, the bytes do not.
func run(w workload, opts Options, spec runSpec) runOut {
	ex, query, rec := prepare(w, opts, spec)
	m, th := ex.P.M, ex.T
	before := *m.Obs.Times
	answer := query(ex)
	snap := m.Obs.Hists.Snapshot()
	if snap != nil {
		ex.ReadStats(snap)
	}
	ex.P.Release()
	var down sim.Time
	if k := spec.shards; k > 0 {
		ts := append(fault.Links(k), fault.Pool())
		for s := range k {
			ts = append(ts, fault.Shard(s))
		}
		down = m.Fault.Downtime(th.Now(), ts...)
	}
	return runOut{
		Time: ex.Total(), Profile: ex.Profile(), Proc: ex.P, RT: ex.RT,
		Answer: answer, End: th.Now(), Down: down, Rec: rec, Metrics: snap,
		Comps: m.Obs.Times.Sub(before),
	}
}

// cellKey names a cell by everything run is given; the workload by its name,
// which is its identity (workload.Name).
type cellKey struct {
	w    string
	opts Options
	spec runSpec
}

// cell is the job of a figure's data point: run's result for w under spec.
// Equal cells of one entry-point call are one run: Figs 3 and 13 share most
// of theirs, Figs 10, 1b, 18, A1 and A3 read cells that 3, 13 or 1b run, and
// Fig 22 reads Fig 21's.
func cell(w workload, opts Options, spec runSpec) func() runOut {
	k := cellKey{w.Name, opts, spec}
	return func() runOut {
		return memo(k.opts.scope, func(s *scope) *table[cellKey, runOut] { return &s.cells },
			k, func() runOut { return run(w, k.opts, k.spec) })
	}
}

// grid runs every workload on every platform and returns the cells
// workload-major: outs[i*len(plats)+j] is ws[i] on plats[j].
func grid(opts Options, ws []workload, plats ...platform) []runOut {
	var jobs []func() runOut
	for _, w := range ws {
		for _, p := range plats {
			jobs = append(jobs, cell(w, opts, runSpec{platform: p}))
		}
	}
	return parmap(opts, jobs)
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

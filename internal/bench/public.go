package bench

import (
	"fmt"
	"io"
	"slices"

	"teleport/internal/advisor"
	"teleport/internal/ddc"
	"teleport/internal/hw"
	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/trace"
)

// WorkloadNames lists the eight evaluation workloads plus the extras
// (QFilter, Q1, PageRank).
func WorkloadNames() []string {
	ws := publicWorkloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// publicWorkload resolves one of WorkloadNames.
func publicWorkload(name string) (workload, error) {
	for _, w := range publicWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, WorkloadNames())
}

type platformDef struct {
	name string
	plat platform
	auto bool
}

// platforms is the one table of selectable platforms. "teleport-auto"
// profiles the workload on the base DDC first and lets internal/advisor
// choose the operators to push.
var platforms = []platformDef{
	{"local", platLocal, false},
	{"linux-ssd", platLinuxSSD, false},
	{"base-ddc", platBase, false},
	{"teleport", platTeleport, false},
	{"teleport-auto", platTeleport, true},
}

// PlatformNames lists the selectable platforms.
func PlatformNames() []string {
	names := make([]string, len(platforms))
	for i, pl := range platforms {
		names[i] = pl.name
	}
	return names
}

// WorkloadResult is one workload execution for external tooling
// (cmd/ddcsim): the unified report it prints and marshals, plus the raw
// artifacts the report summarises.
type WorkloadResult struct {
	// RunReport carries the identity, the virtual time, the attribution
	// breakdown and whichever observability sections the options collected.
	RunReport

	// Metrics is the run's snapshot — every layer's counters and gauges and
	// the registry's histograms — when Options.Metrics is set.
	Metrics *metrics.Snapshot
	// Trace holds the machine's retained events when Options.TraceCap > 0.
	Trace []trace.Event
	// SpanProfile is the virtual-time profile folded from the trace when
	// Options.Profiling is set (nil otherwise; see internal/obs).
	SpanProfile *obs.Profile
	// Incidents holds the flight recorder's retained records when
	// Options.IncidentEvents > 0.
	Incidents []obs.Incident
}

// RunWorkload executes one named workload on one named platform.
func RunWorkload(workloadName, platformName string, opts Options) (WorkloadResult, error) {
	results, err := RunWorkloads([]string{workloadName}, platformName, opts)
	if err != nil {
		return WorkloadResult{}, err
	}
	return results[0], nil
}

// RunWorkloads executes several named workloads on one named platform —
// concurrently across host cores when opts.Parallel allows — and returns
// the results in input order. Each execution is hermetic, so the results
// are bit-identical to running the workloads one at a time.
func RunWorkloads(names []string, platformName string, opts Options) ([]WorkloadResult, error) {
	opts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	pi := slices.IndexFunc(platforms, func(pl platformDef) bool { return pl.name == platformName })
	if pi < 0 {
		return nil, fmt.Errorf("bench: unknown platform %q (have %v)", platformName, PlatformNames())
	}
	jobs := make([]func() WorkloadResult, len(names))
	for i, name := range names {
		w, err := publicWorkload(name)
		if err != nil {
			return nil, err
		}
		jobs[i] = func() WorkloadResult { return runWorkload(w, platforms[pi], opts) }
	}
	return parmap(opts, jobs), nil
}

// runWorkload executes w on pl under resolved options and assembles the
// result and its report, once. Its run is its own, not a cell of the scope:
// the fault report extends the run's fault plan.
func runWorkload(w workload, pl platformDef, opts Options) WorkloadResult {
	spec := runSpec{platform: pl.plat}
	if pl.auto {
		ops, _ := costModelPush(cell(w, opts, runSpec{platform: platBase})())
		spec.pushOps = pushing(ops)
	}
	out := run(w, opts, spec)
	m := out.Proc.M
	res := WorkloadResult{
		RunReport: RunReport{
			Schema:   ReportSchema,
			Workload: w.Name, Platform: pl.name,
			Seconds: out.Time.Seconds(), Nanos: int64(out.Time),
			Attribution:   newReport(w.Name, pl.name, out),
			DroppedEvents: m.Trace.Dropped(),
		},
		Trace:   m.Trace.Events(),
		Metrics: out.Metrics,
	}
	if opts.Profiling {
		p := obs.BuildProfile(res.Trace, res.DroppedEvents)
		res.SpanProfile = p
		res.HotPaths, res.ProfileSelfNs, res.SkippedSpans = p.TopK(reportTopK), p.TotalSelfNs(), p.SkippedSpans
	}
	if opts.Percentiles {
		res.Latency = obs.LatencySummary(res.Metrics)
	}
	res.Incidents = out.Rec.Incidents()
	res.setIncidents(out.Rec.Total(), res.Incidents)
	if opts.chaos != nil {
		res.Fault = newFaultReport(opts, out, res.Latency)
	}
	return res
}

// costModelPush asks the advisor's hardware cost model which operators of a
// base-DDC profiling run are worth pushing.
func costModelPush(base runOut) ([]string, []advisor.Decision) {
	hwCfg := hw.Testbed()
	cfg := advisor.DefaultConfig()
	cfg.TableEntries = base.Proc.Space.Pages()
	return advisor.Recommend(base.Profile, cfg, &hwCfg)
}

// Advise profiles a workload on the base DDC and returns the pushdown
// advisor's per-operator decisions (cost-model mode).
func Advise(workloadName string, opts Options) ([]advisor.Decision, error) {
	opts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	w, err := publicWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	_, decisions := costModelPush(cell(w, opts, runSpec{platform: platBase})())
	return decisions, nil
}

// DescribeDataset generates one of the synthetic datasets — "tpch", "graph"
// (directed) or "corpus" — at opts' sizes, exactly as the workloads build it,
// and prints its shape: what sizing an experiment needs before running it.
func DescribeDataset(w io.Writer, kind string, opts Options) error {
	p := opts.scope.share(ddc.MustMachine(ddc.Linux()).NewProcess())
	switch kind {
	case "tpch":
		d := loadTPCH(p, opts)
		fmt.Fprintf(w, "TPC-H micro scale %g:\n", opts.Scale)
		fmt.Fprintf(w, "  lineitem %d, orders %d, customer %d, part %d, supplier %d, partsupp %d\n",
			d.L, d.O, d.C, d.P, d.S, d.PS)
		fmt.Fprintf(w, "  database bytes: %d (%.1f MB), pages: %d\n",
			d.DB.Bytes(), float64(d.DB.Bytes())/(1<<20), p.Space.Pages())
		for _, name := range d.DB.Tables() {
			t := d.DB.Table(name)
			fmt.Fprintf(w, "  table %-10s rows=%-8d cols=%v\n", name, t.N, t.Columns())
		}
	case "graph":
		g := genGraph(p, opts, false)
		fmt.Fprintf(w, "graph: %d vertices, %d edges, %.1f MB CSR, %d pages allocated\n",
			g.NV, g.NE, float64(g.Bytes())/(1<<20), p.Space.Pages())
	case "corpus":
		c := genCorpus(p, opts)
		fmt.Fprintf(w, "corpus: %d bytes (%.1f MB), %d lines, vocab %d\n",
			c.Len, float64(c.Len)/(1<<20), c.Lines, c.Vocab)
	default:
		return fmt.Errorf("bench: unknown dataset kind %q (tpch | graph | corpus)", kind)
	}
	return nil
}

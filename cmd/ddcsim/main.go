// Command ddcsim is the simulator's one front door. Its first argument is a
// verb, and each verb accepts only the flags it consumes:
//
//	ddcsim run -workload Q9,Q3,Q6 -platform teleport -parallel 4
//	ddcsim run -workload Q6 -platform teleport -report -chaos-profile chaos -trace-out q6.json -incident-out q6.jsonl
//	ddcsim fig -fig 6,7,20 -scale 4 -seed 7   # no -fig: every figure (1a–22, A1–A7); -list: the ids
//	ddcsim cluster -cluster 8 -cluster-rounds 4 -sim-workers 1
//	ddcsim advise -workload Q9                # the advisor's pushdown decisions
//	ddcsim profiles                           # fault profiles with their parameters
//	ddcsim datagen -kind tpch -scale 2        # a synthetic dataset's shape, for sizing experiments
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"teleport/internal/bench"
	"teleport/internal/core"
	"teleport/internal/fault"
	"teleport/internal/obs"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// binder is the one place flags are declared. Its groups mirror the sections
// of bench.Options and fill opts directly; a verb binds the groups it
// consumes, so a flag outside them is a parse error, not a silent no-op.
type binder struct {
	fs                       *flag.FlagSet
	opts                     bench.Options
	workload, platform, figs string
	kind                     string
	report, list             bool
	machines, rounds         int
	policy                   core.Policy
	deadlineUs, cooldownUs   float64
	paths                    [len(artifacts)]string
	profiles                 [len(hostProfiles)]string
}

// group is one set of flags declared together.
type group struct {
	name string
	bind func(*binder)
}

var (
	gWorkload = group{"workload", func(b *binder) {
		b.fs.StringVar(&b.workload, "workload", "Q6", "one of "+strings.Join(bench.WorkloadNames(), ", ")+"; run takes a comma-separated list and runs it concurrently, results in list order")
	}}
	gPlatform = group{"platform", func(b *binder) {
		b.fs.StringVar(&b.platform, "platform", "base-ddc", "one of "+strings.Join(bench.PlatformNames(), ", "))
		b.fs.BoolVar(&b.report, "report", false, "print the per-run time-attribution report")
	}}
	gFigures = group{"figures", func(b *binder) {
		b.fs.StringVar(&b.figs, "fig", "all", "figure id(s), comma separated, or 'all'")
		b.fs.BoolVar(&b.list, "list", false, "list figure ids and exit")
	}}
	gCluster = group{"cluster", func(b *binder) {
		b.fs.IntVar(&b.machines, "cluster", 8, "machines in the multi-machine BSP scan-aggregate")
		b.fs.IntVar(&b.rounds, "cluster-rounds", 4, "BSP supersteps")
	}}
	gKind = group{"dataset kind", func(b *binder) {
		b.fs.StringVar(&b.kind, "kind", "tpch", "dataset to generate: tpch, graph or corpus")
	}}
	gDataset = group{"dataset sizing", func(b *binder) {
		d := bench.Defaults()
		b.fs.Float64Var(&b.opts.Scale, "scale", d.Scale, "TPC-H micro scale factor (lineitem = 60000*scale rows)")
		b.fs.IntVar(&b.opts.GraphNV, "graph-nv", d.GraphNV, "graph vertex count")
		b.fs.IntVar(&b.opts.Words, "words", d.Words, "MapReduce corpus size in tokens")
		b.fs.Int64Var(&b.opts.Seed, "seed", d.Seed, "generator seed")
		b.fs.Float64Var(&b.opts.CacheFrac, "cache-frac", d.CacheFrac, "compute-local cache as a fraction of the working set")
	}}
	gTopology = group{"pool topology", func(b *binder) {
		b.fs.IntVar(&b.opts.PoolShards, "pool-shards", 0, "memory-pool shard count for disaggregated platforms (0/1 = single controller)")
		b.fs.IntVar(&b.opts.Replicas, "replicas", 0, "synchronous page replicas across shards (0/1 = unreplicated)")
		b.fs.IntVar(&b.opts.WriteQuorum, "write-quorum", 0, "replica acks a page write needs to commit; unreachable replicas get hinted handoff (0/1 = legacy fan-out)")
	}}
	gChaos = group{"chaos", func(b *binder) {
		b.fs.StringVar(&b.opts.ChaosProfile, "chaos-profile", "", "fault-injection profile: none, "+strings.Join(fault.ProfileNames(), ", ")+" (ddcsim profiles describes them)")
		b.fs.Int64Var(&b.opts.ChaosSeed, "chaos-seed", 0, "fault plan seed (0 = reuse -seed)")
	}}
	gPolicy = group{"pushdown policy", func(b *binder) {
		b.policy = core.DefaultPolicy()
		b.opts.Policy = &b.policy
		b.fs.Float64Var(&b.deadlineUs, "push-deadline-us", b.policy.Deadline.Micros(), "per-attempt pushdown deadline budget in virtual microseconds (0 = none)")
		b.fs.IntVar(&b.policy.BreakerThreshold, "breaker-threshold", b.policy.BreakerThreshold, "circuit-breaker consecutive-failure threshold; 0 turns the breaker off")
		b.fs.Float64Var(&b.cooldownUs, "breaker-cooldown-us", b.policy.BreakerCooldown.Micros(), "circuit-breaker open cooldown in virtual microseconds")
	}}
	gParallel = group{"host parallelism (data points)", func(b *binder) {
		b.fs.IntVar(&b.opts.Parallel, "parallel", 0, "concurrent workloads or figure data points on the host: 0 = one per core (GOMAXPROCS), 1 = sequential, n = n workers")
	}}
	gSimWorkers = group{"host parallelism (domains)", func(b *binder) {
		b.fs.IntVar(&b.opts.SimWorkers, "sim-workers", 0, "host goroutines draining simulation domains inside one lookahead window: 0 = one per core (GOMAXPROCS), 1 = sequential; virtual results are bit-identical at any setting")
	}}
	gArtifacts = group{"artifacts", func(b *binder) {
		b.fs.IntVar(&b.opts.TraceCap, "trace", 0, "dump the last N paging/coherence/pushdown events (the ring also feeds the hot-path table and the incident summary)")
		b.fs.BoolVar(&b.opts.Metrics, "percentiles", false, "print per-operation latency percentiles (p50/p95/p99/p999)")
		for i, a := range artifacts {
			b.fs.StringVar(&b.paths[i], a.flag, "", "write "+a.help+" to this file")
		}
	}}
	gHostProfiles = group{"host profiles", func(b *binder) {
		for i, hp := range hostProfiles {
			b.fs.StringVar(&b.profiles[i], hp.flag, "", "write "+hp.help+" to this file (go tool pprof reads it)")
		}
	}}
)

// hostProfile is one pprof file about the simulator itself — where the host's
// time and memory go, not the simulated machine's — that a verb can leave
// behind: start runs before the verb, the stop it returns after.
type hostProfile struct {
	flag, help string
	start      func(f *os.File) (stop func() error, err error)
}

var hostProfiles = [...]hostProfile{
	{"cpuprofile", "a CPU profile of the simulator", func(f *os.File) (func() error, error) {
		return func() error { pprof.StopCPUProfile(); return nil }, pprof.StartCPUProfile(f)
	}},
	{"memprofile", "a profile of the simulator's allocations", func(f *os.File) (func() error, error) {
		return func() error { runtime.GC(); return pprof.Lookup("allocs").WriteTo(f, 0) }, nil
	}},
}

// profiled runs verb between the starts and stops of the profiles asked for.
func (b *binder) profiled(verb func() error) error {
	for i, hp := range hostProfiles {
		if b.profiles[i] == "" {
			continue
		}
		f, err := os.Create(b.profiles[i])
		if err != nil {
			return fmt.Errorf("-%s: %w", hp.flag, err)
		}
		stop, err := hp.start(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("-%s: %w", hp.flag, err)
		}
		inner := verb
		verb = func() error {
			err := inner()
			if serr := stop(); err == nil {
				err = serr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	return verb()
}

// artifact is one file a single-workload run can leave behind: the flag naming
// its path, the recorders the file is read off — the event ring, the metrics
// registry — and emit, which writes it and returns the status line.
type artifact struct {
	flag, help string
	ring, reg  bool
	emit       func(w io.Writer, r *bench.WorkloadResult, path string) (string, error)
}

var artifacts = [...]artifact{
	{"trace-out", "the retained events as Chrome trace-event JSON (Perfetto-loadable)", true, false,
		func(w io.Writer, r *bench.WorkloadResult, path string) (string, error) {
			return fmt.Sprintf("\nwrote %d trace events to %s (load at ui.perfetto.dev)", len(r.Trace), path), trace.WriteChromeTrace(w, r.Trace)
		}},
	{"trace-dump", "the retained events as text, one per line,", true, false,
		func(w io.Writer, r *bench.WorkloadResult, path string) (string, error) {
			trace.Dump(w, "", r.Trace, r.DroppedEvents)
			return fmt.Sprintf("wrote %d trace events to %s", len(r.Trace), path), nil
		}},
	{"metrics-out", "the metrics registry snapshot as JSON", false, true,
		func(w io.Writer, r *bench.WorkloadResult, path string) (string, error) {
			return "wrote metrics snapshot to " + path, r.Metrics.WriteJSON(w)
		}},
	{"profile-out", "the virtual-time profile as folded stacks (flamegraph.pl/speedscope input)", true, false,
		func(w io.Writer, r *bench.WorkloadResult, path string) (string, error) {
			return fmt.Sprintf("wrote %d span paths to %s (feed to flamegraph.pl --countname=ns)", len(r.SpanProfile.Paths), path), r.SpanProfile.WriteFolded(w)
		}},
	{"incident-out", "flight-recorder incident records as JSONL", true, false,
		func(w io.Writer, r *bench.WorkloadResult, path string) (string, error) {
			return fmt.Sprintf("wrote %d incident records to %s (%d triggered)", len(r.Incidents), path, r.IncidentsTotal), obs.WriteIncidentsJSONL(w, r.Incidents)
		}},
	{"report-out", "the unified run report (attribution + percentiles + hot paths + incidents) as JSON", true, true,
		func(w io.Writer, r *bench.WorkloadResult, path string) (string, error) {
			return "wrote unified run report to " + path, r.WriteJSON(w)
		}},
}

// verb is one subcommand: the flag groups it binds and what it does.
type verb struct {
	name, help string
	groups     []group
	run        func(b *binder, stdout io.Writer) error
}

var verbs = []verb{
	{"run", "run workloads on one platform and print the per-operator profile",
		[]group{gWorkload, gPlatform, gDataset, gTopology, gChaos, gPolicy, gParallel, gArtifacts, gHostProfiles}, runVerb},
	{"fig", "regenerate the paper's evaluation figures and tables",
		[]group{gFigures, gDataset, gTopology, gParallel, gHostProfiles}, figVerb},
	{"cluster", "run the multi-machine BSP workload (stdout is identical at every -sim-workers)",
		[]group{gCluster, gDataset, gTopology, gChaos, gSimWorkers}, clusterVerb},
	{"advise", "profile one workload on the base DDC and print the advisor's pushdown decisions",
		[]group{gWorkload, gDataset, gTopology}, adviseVerb},
	{"profiles", "list the fault-injection profiles with their parameters", nil, profilesVerb},
	{"datagen", "generate one synthetic dataset as the workloads do and print its shape",
		[]group{gKind, gDataset}, func(b *binder, stdout io.Writer) error {
			return bench.DescribeDataset(stdout, b.kind, b.opts)
		}},
}

// bind returns v's flag set: exactly the flags of its groups.
func (v verb) bind(stderr io.Writer) *binder {
	b := &binder{fs: flag.NewFlagSet("ddcsim "+v.name, flag.ContinueOnError)}
	b.fs.SetOutput(stderr)
	for _, g := range v.groups {
		g.bind(b)
	}
	return b
}

// check rejects the dataset sizes the generators cannot build, cache
// fractions no cache can be sized to, negative counts, figure ids that
// name no figure, and pushdown-policy durations that are none, in the verbs
// that take them.
func (b *binder) check() error {
	o := &b.opts
	switch {
	case b.fs.Lookup("graph-nv") == nil: // the verb sizes no dataset
	case !(o.Scale > 0) || math.IsInf(o.Scale, 1):
		return fmt.Errorf("-scale must be a finite number > 0, got %v", o.Scale)
	case o.GraphNV < 1:
		return fmt.Errorf("-graph-nv must be ≥ 1, got %d", o.GraphNV)
	case o.Words < 1:
		return fmt.Errorf("-words must be ≥ 1, got %d", o.Words)
	case !(o.CacheFrac >= 0) || math.IsInf(o.CacheFrac, 1):
		return fmt.Errorf("-cache-frac must be a finite number ≥ 0, got %v", o.CacheFrac)
	}
	for _, name := range []string{"trace", "parallel", "sim-workers", "breaker-threshold"} {
		if f := b.fs.Lookup(name); f != nil && f.Value.(flag.Getter).Get().(int) < 0 {
			return fmt.Errorf("-%s must be ≥ 0, got %v", name, f.Value)
		}
	}
	if b.fs.Lookup("fig") != nil && b.figs != "all" {
		for _, id := range strings.Split(b.figs, ",") {
			if !slices.Contains(bench.Figures(), strings.TrimSpace(id)) {
				return fmt.Errorf("-fig must be 'all' or ids that ddcsim fig -list prints, comma separated: unknown figure %q", id)
			}
		}
	}
	if b.fs.Lookup("push-deadline-us") == nil { // the verb takes no pushdown policy
		return nil
	}
	// A duration becomes a sim.Time of nanoseconds, which holds less than
	// 2^63 of them.
	for _, d := range []struct {
		flag string
		us   float64
	}{{"push-deadline-us", b.deadlineUs}, {"breaker-cooldown-us", b.cooldownUs}} {
		if !(d.us >= 0 && d.us*1e3 < math.MaxInt64) {
			return fmt.Errorf("-%s must be a finite number ≥ 0 below %g, got %v", d.flag, math.MaxInt64/1e3, d.us)
		}
	}
	return nil
}

// cli runs one ddcsim invocation and returns its exit status.
func cli(args []string, stdout, stderr io.Writer) int {
	for _, v := range verbs {
		if len(args) == 0 || v.name != args[0] {
			continue
		}
		b := v.bind(stderr)
		if b.fs.Parse(args[1:]) != nil {
			return 2 // the flag set has already said why on stderr
		}
		err := fmt.Errorf("unexpected argument %q", b.fs.Arg(0))
		if b.fs.NArg() == 0 {
			err = b.check()
		}
		if err == nil {
			err = b.profiled(func() error { return v.run(b, stdout) })
		}
		if err != nil {
			fmt.Fprintf(stderr, "ddcsim %s: %v\n", v.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintln(stderr, "usage: ddcsim <verb> [flags]   (ddcsim <verb> -h lists the verb's flags)")
	for _, v := range verbs {
		fmt.Fprintf(stderr, "  %-9s %s\n", v.name, v.help)
	}
	return 2
}

func runVerb(b *binder, stdout io.Writer) error {
	names := strings.Split(strings.ReplaceAll(b.workload, " ", ""), ",")
	o := &b.opts
	b.policy.Deadline, b.policy.BreakerCooldown = sim.FromNs(b.deadlineUs*1e3), sim.FromNs(b.cooldownUs*1e3)
	tail := o.TraceCap > 0
	for i, a := range artifacts {
		if b.paths[i] == "" {
			continue
		}
		if len(names) > 1 {
			return fmt.Errorf("-%s needs a single -workload", a.flag)
		}
		o.Metrics = o.Metrics || a.reg
		if a.ring {
			o.TraceCap = cmp.Or(o.TraceCap, bench.DefaultTraceCap)
		}
	}
	results, err := bench.RunWorkloads(names, b.platform, *o)
	if err != nil {
		return err
	}
	for i := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		res := &results[i]
		res.Fprint(stdout, b.report)
		if tail && len(res.Trace) > 0 {
			fmt.Fprintf(stdout, "\nlast %d events:\n", len(res.Trace))
			trace.Dump(stdout, "  ", res.Trace, res.DroppedEvents)
		}
	}
	for i, a := range artifacts {
		if b.paths[i] == "" {
			continue
		}
		f, err := os.Create(b.paths[i])
		if err != nil {
			return fmt.Errorf("-%s: %w", a.flag, err)
		}
		status, err := a.emit(f, &results[0], b.paths[i])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("-%s: %w", a.flag, err)
		}
		fmt.Fprintln(stdout, status)
	}
	return nil
}

func figVerb(b *binder, stdout io.Writer) error {
	if b.list {
		fmt.Fprintln(stdout, strings.Join(bench.Figures(), " "))
		return nil
	}
	fmt.Fprint(stdout, b.opts.Header())
	if b.figs == "all" {
		tabs, err := bench.RunAll(b.opts)
		for _, t := range tabs {
			t.Fprint(stdout)
		}
		return err
	}
	for _, id := range strings.Split(b.figs, ",") {
		t, err := bench.Run(strings.TrimSpace(id), b.opts)
		if err != nil {
			return err
		}
		t.Fprint(stdout)
	}
	return nil
}

// clusterVerb prints deterministic bytes only: CI compares them verbatim at -sim-workers 1 and 8.
func clusterVerb(b *binder, stdout io.Writer) error {
	res, err := bench.RunCluster(b.opts, b.machines, b.rounds)
	if err == nil {
		res.Fprint(stdout)
	}
	return err
}

func adviseVerb(b *binder, stdout io.Writer) error {
	decisions, err := bench.Advise(b.workload, b.opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "advisor decisions for %s (profiled on the base DDC):\n", b.workload)
	for _, dec := range decisions {
		fmt.Fprintln(stdout, " ", dec)
	}
	return nil
}

func profilesVerb(_ *binder, stdout io.Writer) error {
	for _, p := range fault.Profiles() {
		fmt.Fprintf(stdout, "%-12s %s\n%-12s   %s\n", p.Name, p.Description, "", p.Params())
	}
	return nil
}

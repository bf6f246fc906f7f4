// Command ddcsim runs one of the paper's eight workloads on a chosen
// platform and prints the per-operator profile — handy for exploring how a
// workload's operators behave as the platform changes.
//
// Usage:
//
//	ddcsim -workload Q9 -platform base-ddc
//	ddcsim -workload SSSP -platform teleport -scale 4
//	ddcsim -workload Q6 -platform teleport -report
//	ddcsim -workload Q6 -platform teleport -trace-out q6.json -metrics-out q6-metrics.json
//	ddcsim -workload Q9,Q3,Q6 -platform teleport -parallel 4
//	ddcsim -chaos-profile list
//	ddcsim -workload Q6 -platform teleport -pool-shards 4 -replicas 2 -chaos-profile shard-flap
//	ddcsim -workload Q6 -platform teleport -profile-out q6.folded -percentiles
//	ddcsim -workload Q6 -platform teleport -chaos-profile stress -incident-out q6-incidents.jsonl -report-out q6-report.json
//
// A comma-separated -workload list runs the workloads concurrently across
// host cores (bounded by -parallel); results print in list order and are
// bit-identical to sequential runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"teleport/internal/bench"
	"teleport/internal/fault"
	"teleport/internal/obs"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

func main() {
	defaults := bench.Defaults()
	var (
		workload   = flag.String("workload", "Q6", "comma-separated list from "+strings.Join(bench.WorkloadNames(), ", "))
		parallel   = flag.Int("parallel", 0, "concurrent workloads on the host: 0 = one per core (GOMAXPROCS), 1 = sequential, n = n workers")
		cluster    = flag.Int("cluster", 0, "run the multi-machine cluster workload on this many machines instead of -workload (0 = off)")
		clRounds   = flag.Int("cluster-rounds", 4, "cluster workload BSP supersteps")
		simWorkers = flag.Int("sim-workers", 0, "host goroutines draining simulation domains inside one lookahead window: 0 = one per core (GOMAXPROCS), 1 = sequential; virtual results are bit-identical at any setting")
		platform   = flag.String("platform", "base-ddc", "one of "+strings.Join(bench.PlatformNames(), ", "))
		scale      = flag.Float64("scale", defaults.Scale, "TPC-H micro scale factor")
		graphNV    = flag.Int("graph-nv", defaults.GraphNV, "graph vertex count")
		words      = flag.Int("words", defaults.Words, "corpus tokens")
		seed       = flag.Int64("seed", defaults.Seed, "generator seed")
		cacheFrac  = flag.Float64("cache-frac", defaults.CacheFrac, "compute cache fraction")
		traceN     = flag.Int("trace", 0, "dump the last N paging/coherence/pushdown events")
		traceOut   = flag.String("trace-out", "", "write the retained events as Chrome trace-event JSON (Perfetto-loadable) to this file")
		traceDump  = flag.String("trace-dump", "", "write the retained events as text, one per line, to this file")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file")
		report     = flag.Bool("report", false, "print the per-run time-attribution report")
		advise     = flag.Bool("advise", false, "profile on the base DDC and print the advisor's pushdown decisions")
		chaosProf  = flag.String("chaos-profile", "", "fault-injection profile: none, "+strings.Join(fault.ProfileNames(), ", ")+"; 'list' prints all profiles with parameters")
		chaosSeed  = flag.Int64("chaos-seed", 0, "fault plan seed (0 = reuse -seed)")
		poolShards = flag.Int("pool-shards", 0, "memory-pool shard count (0/1 = single controller)")
		replicas   = flag.Int("replicas", 0, "synchronous page replicas across shards (0/1 = unreplicated)")
		writeQ     = flag.Int("write-quorum", 0, "replica acks a page write needs to commit; unreachable replicas get hinted handoff (0/1 = legacy fan-out)")
		queueCap   = flag.Int("push-queue-cap", 0, "memory-pool workqueue capacity; beyond it requests are shed (0 = unbounded)")
		deadlineUs = flag.Float64("push-deadline-us", 0, "per-attempt pushdown deadline budget in virtual microseconds (0 = none)")
		brThresh   = flag.Int("breaker-threshold", 0, "circuit-breaker consecutive-failure threshold (0 = default, negative = disabled)")
		brCoolUs   = flag.Float64("breaker-cooldown-us", 0, "circuit-breaker open cooldown in virtual microseconds (0 = default)")

		profileOut  = flag.String("profile-out", "", "write the virtual-time profile as folded stacks (flamegraph.pl/speedscope input) to this file")
		percentiles = flag.Bool("percentiles", false, "print per-operation latency percentiles (p50/p95/p99/p999)")
		exactQuant  = flag.Int("exact-quantiles", 0, "retain up to N raw samples per histogram so small operation classes report exact quantiles (0 = bucket interpolation only)")
		incidentOut = flag.String("incident-out", "", "write flight-recorder incident records as JSONL to this file")
		incidentN   = flag.Int("incident-events", 0, "trace-window size per incident (0 with -incident-out = default "+fmt.Sprint(obs.DefaultIncidentEvents)+")")
		reportOut   = flag.String("report-out", "", "write the unified run report (attribution + percentiles + hot paths + incidents) as JSON to this file")
	)
	flag.Parse()

	if *chaosProf == "list" {
		for _, p := range fault.Profiles() {
			fmt.Printf("%-12s %s\n%-12s   %s\n", p.Name, p.Description, "", p.Params())
		}
		return
	}
	traceCap := *traceN
	if traceCap == 0 && (*traceOut != "" || *traceDump != "") {
		// Trace export asked for without an explicit ring size: retain a
		// generous window.
		traceCap = 1 << 18
	}
	incidentEvents := *incidentN
	if incidentEvents == 0 && *incidentOut != "" {
		incidentEvents = obs.DefaultIncidentEvents
	}
	opts := bench.Options{
		Scale: *scale, GraphNV: *graphNV, Words: *words,
		Seed: *seed, CacheFrac: *cacheFrac, TraceCap: traceCap,
		Metrics:        *metricsOut != "",
		Profiling:      *profileOut != "" || *reportOut != "",
		Percentiles:    *percentiles || *reportOut != "",
		ExactQuantiles: *exactQuant,
		IncidentEvents: incidentEvents,
		ChaosProfile:   *chaosProf, ChaosSeed: *chaosSeed,
		PoolShards: *poolShards, Replicas: *replicas, WriteQuorum: *writeQ,
		PushQueueCap:     *queueCap,
		PushDeadline:     sim.FromNs(*deadlineUs * 1e3),
		BreakerThreshold: *brThresh,
		BreakerCooldown:  sim.FromNs(*brCoolUs * 1e3),
		Parallel:         *parallel,
		SimWorkers:       *simWorkers,
	}
	if *cluster > 0 {
		// Cluster mode prints only deterministic bytes on stdout: CI runs
		// it at -sim-workers 1 and 8 and compares the outputs verbatim.
		res, err := bench.RunCluster(opts, *cluster, *clRounds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.Fprint(os.Stdout)
		return
	}
	names := strings.Split(*workload, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if len(names) > 1 {
		if *advise || traceCap > 0 || *metricsOut != "" ||
			*profileOut != "" || *incidentOut != "" || *reportOut != "" {
			fmt.Fprintln(os.Stderr, "ddcsim: -advise/-trace*/-metrics-out/-profile-out/-incident-out/-report-out need a single -workload")
			os.Exit(1)
		}
		results, err := bench.RunWorkloads(names, *platform, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, res := range results {
			if i > 0 {
				fmt.Println()
			}
			printResult(res, *report)
		}
		return
	}
	if *advise {
		decisions, err := bench.Advise(*workload, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("advisor decisions for %s (profiled on the base DDC):\n", *workload)
		for _, dec := range decisions {
			fmt.Println(" ", dec)
		}
		return
	}
	res, err := bench.RunWorkload(names[0], *platform, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printResult(res, *report)
	// artifact writes one requested output file, or exits naming its flag.
	artifact := func(flagName, path string, write func(io.Writer) error) {
		if err := writeFile(path, write); err != nil {
			fmt.Fprintln(os.Stderr, flagName+":", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		artifact("trace-out", *traceOut, func(w io.Writer) error { return trace.WriteChromeTrace(w, res.Trace) })
		fmt.Printf("\nwrote %d trace events to %s (load at ui.perfetto.dev)\n", len(res.Trace), *traceOut)
	}
	if *traceDump != "" {
		artifact("trace-dump", *traceDump, func(w io.Writer) error {
			for _, e := range res.Trace {
				fmt.Fprintln(w, e)
			}
			return nil
		})
		fmt.Printf("wrote %d trace events to %s\n", len(res.Trace), *traceDump)
	}
	if *metricsOut != "" {
		artifact("metrics-out", *metricsOut, res.Metrics.WriteJSON)
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
	}
	if *profileOut != "" {
		artifact("profile-out", *profileOut, res.SpanProfile.WriteFolded)
		fmt.Printf("wrote %d span paths to %s (feed to flamegraph.pl --countname=ns)\n",
			len(res.SpanProfile.Paths), *profileOut)
	}
	if *incidentOut != "" {
		artifact("incident-out", *incidentOut, func(w io.Writer) error {
			return obs.WriteIncidentsJSONL(w, res.Incidents)
		})
		fmt.Printf("wrote %d incident records to %s (%d triggered)\n",
			len(res.Incidents), *incidentOut, res.IncidentsTotal)
	}
	if *reportOut != "" {
		artifact("report-out", *reportOut, bench.NewRunReport(res).WriteJSON)
		fmt.Printf("wrote unified run report to %s\n", *reportOut)
	}
	if *traceN > 0 && len(res.Trace) > 0 {
		fmt.Printf("\nlast %d events:\n", len(res.Trace))
		for _, e := range res.Trace {
			fmt.Println(" ", e)
		}
	}
}

// printResult renders one workload execution: the virtual-time summary, the
// per-operator profile, and (optionally) the attribution report plus
// whatever observability sections the run collected (percentiles, hot span
// paths, incident summary, chaos report).
func printResult(res bench.WorkloadResult, report bool) {
	fmt.Printf("%s on %s: %.6f s (virtual)\n\n", res.Workload, res.Platform, res.Seconds)
	fmt.Printf("  %-14s %12s %10s %12s %8s\n", "operator", "time(s)", "calls", "remote(KB)", "pushed")
	for _, o := range res.Profile {
		fmt.Printf("  %-14s %12.6f %10d %12.1f %8v\n",
			o.Name, o.Time.Seconds(), o.Calls, float64(o.RemoteByte)/1024, o.Pushed)
	}
	fmt.Println()
	rr := bench.NewRunReport(res)
	if !report {
		rr.Attribution = nil
	}
	rr.Fprint(os.Stdout)
}

// writeFile creates path and streams write into it, closing on either path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

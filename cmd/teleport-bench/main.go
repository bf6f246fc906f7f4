// Command teleport-bench regenerates the paper's evaluation figures and
// tables (Figures 1a–22) on the simulated disaggregated data center.
//
// Usage:
//
//	teleport-bench                      # regenerate every figure
//	teleport-bench -fig 13              # one figure
//	teleport-bench -fig 6,7,20          # several
//	teleport-bench -scale 4 -seed 7     # bigger workloads
//	teleport-bench -parallel 1          # force sequential data points
//	teleport-bench -bench-out host.json # per-figure host wall-clock + allocations
//	teleport-bench -workload Q6 -percentiles           # forensic drill-down
//	teleport-bench -workload Q6 -chaos-profile chaos -profile-out q6.folded -incident-out q6.jsonl
//
// Output is the same rows/series the paper reports; absolute values reflect
// the scaled-down datasets (see DESIGN.md's scale rule and EXPERIMENTS.md
// for the committed paper-vs-measured record). Figure data points fan out
// across host cores by default; the virtual-time results are bit-identical
// at every -parallel setting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"teleport/internal/bench"
	"teleport/internal/obs"
)

func main() {
	defaults := bench.Defaults()
	var (
		fig        = flag.String("fig", "all", "figure id(s), comma separated, or 'all'")
		scale      = flag.Float64("scale", defaults.Scale, "TPC-H micro scale factor (lineitem = 60000*scale rows)")
		graphNV    = flag.Int("graph-nv", defaults.GraphNV, "graph vertex count")
		words      = flag.Int("words", defaults.Words, "MapReduce corpus size in tokens")
		seed       = flag.Int64("seed", defaults.Seed, "generator seed")
		cacheFrac  = flag.Float64("cache-frac", defaults.CacheFrac, "compute-local cache as a fraction of the working set")
		parallel   = flag.Int("parallel", 0, "concurrent figure data points on the host: 0 = one per core (GOMAXPROCS), 1 = sequential, n = n workers")
		simWorkers = flag.Int("sim-workers", 0, "host goroutines draining simulation domains of the multi-machine cluster benchmark: 0 = one per core, 1 = sequential; virtual results are bit-identical at any setting")
		shards     = flag.Int("pool-shards", 0, "memory-pool shard count for disaggregated platforms (0/1 = single controller)")
		replicas   = flag.Int("replicas", 0, "synchronous page replicas across shards (0/1 = unreplicated)")
		writeQ     = flag.Int("write-quorum", 0, "replica acks a page write needs to commit; unreachable replicas get hinted handoff (0/1 = legacy fan-out)")
		list       = flag.Bool("list", false, "list figure ids and exit")

		benchOut = flag.String("bench-out", "", "run the whole suite timed and write the host benchmark report (wall-clock + allocs per figure) to this file")
		quiet    = flag.Bool("quiet", false, "suppress the figure tables (useful with -bench-out)")

		workload    = flag.String("workload", "", "forensic mode: run this single workload (one of "+strings.Join(bench.WorkloadNames(), ", ")+") instead of figures")
		platform    = flag.String("platform", "teleport", "forensic mode platform: one of "+strings.Join(bench.PlatformNames(), ", "))
		chaosProf   = flag.String("chaos-profile", "", "forensic mode fault-injection profile (see internal/fault)")
		chaosSeed   = flag.Int64("chaos-seed", 0, "forensic mode fault plan seed (0 = reuse -seed)")
		profileOut  = flag.String("profile-out", "", "forensic mode: write the virtual-time profile as folded stacks to this file")
		percentiles = flag.Bool("percentiles", false, "forensic mode: print per-operation latency percentiles")
		exactQuant  = flag.Int("exact-quantiles", 0, "forensic mode: retain up to N raw samples per histogram for exact quantiles")
		incidentOut = flag.String("incident-out", "", "forensic mode: write flight-recorder incident records as JSONL to this file")
		incidentN   = flag.Int("incident-events", 0, "forensic mode: trace-window size per incident (0 with -incident-out = default "+fmt.Sprint(obs.DefaultIncidentEvents)+")")
		reportOut   = flag.String("report-out", "", "forensic mode: write the unified run report as JSON to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Figures(), " "))
		return
	}
	opts := bench.Options{
		Scale:       *scale,
		GraphNV:     *graphNV,
		Words:       *words,
		Seed:        *seed,
		CacheFrac:   *cacheFrac,
		Parallel:    *parallel,
		SimWorkers:  *simWorkers,
		PoolShards:  *shards,
		Replicas:    *replicas,
		WriteQuorum: *writeQ,
	}
	if *workload != "" {
		if err := forensicRun(*workload, *platform, opts, forensicFlags{
			chaosProfile: *chaosProf, chaosSeed: *chaosSeed,
			profileOut: *profileOut, percentiles: *percentiles,
			exactQuantiles: *exactQuant,
			incidentOut:    *incidentOut, incidentEvents: *incidentN,
			reportOut: *reportOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if !*quiet {
		fmt.Printf("# teleport-bench scale=%g graph-nv=%d words=%d seed=%d cache-frac=%g\n\n",
			opts.Scale, opts.GraphNV, opts.Words, opts.Seed, opts.CacheFrac)
	}

	if *benchOut != "" {
		tables, rep := bench.RunAllTimed(opts)
		if !*quiet {
			for _, t := range tables {
				t.Fprint(os.Stdout)
			}
		}
		f, err := os.Create(*benchOut)
		if err == nil {
			err = rep.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: suite took %.2fs wall (%d workers, gomaxprocs %d), %d mallocs; wrote %s\n",
			float64(rep.TotalWallNs)/1e9, rep.Workers, rep.GoMaxProcs, rep.TotalMallocs, *benchOut)
		if cl := rep.Cluster; cl != nil {
			fmt.Fprintf(os.Stderr, "bench: cluster %d machines × %d rounds: %.2fs at 1 sim worker, %.2fs at %d (%.2fx, identical virtual results)\n",
				cl.Machines, cl.Rounds, float64(cl.SeqWallNs)/1e9, float64(cl.ParWallNs)/1e9, cl.SimWorkers, cl.Speedup)
		}
		return
	}

	if *fig == "all" {
		for _, t := range bench.RunAll(opts) {
			t.Fprint(os.Stdout)
		}
		return
	}
	for _, id := range strings.Split(*fig, ",") {
		t, err := bench.Run(strings.TrimSpace(id), opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
	}
}

// forensicFlags carries the single-workload observability knobs.
type forensicFlags struct {
	chaosProfile   string
	chaosSeed      int64
	profileOut     string
	percentiles    bool
	exactQuantiles int
	incidentOut    string
	incidentEvents int
	reportOut      string
}

// forensicRun is the figure harness's drill-down mode: instead of
// regenerating tables it executes one workload with the profiler, the
// percentile extractor, and the flight recorder armed, prints the unified
// report, and writes whichever artifacts were asked for. The knobs are all
// passive, so the virtual times match the figure runs exactly.
func forensicRun(workload, platform string, opts bench.Options, ff forensicFlags) error {
	incidentEvents := ff.incidentEvents
	if incidentEvents == 0 && ff.incidentOut != "" {
		incidentEvents = obs.DefaultIncidentEvents
	}
	opts.ChaosProfile = ff.chaosProfile
	opts.ChaosSeed = ff.chaosSeed
	opts.Profiling = ff.profileOut != "" || ff.reportOut != ""
	opts.Percentiles = ff.percentiles || ff.reportOut != ""
	opts.ExactQuantiles = ff.exactQuantiles
	opts.IncidentEvents = incidentEvents
	res, err := bench.RunWorkload(workload, platform, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: %.6f s (virtual)\n\n", res.Workload, res.Platform, res.Seconds)
	bench.NewRunReport(res).Fprint(os.Stdout)
	if ff.profileOut != "" {
		if err := writeFile(ff.profileOut, res.SpanProfile.WriteFolded); err != nil {
			return fmt.Errorf("profile-out: %w", err)
		}
		fmt.Printf("wrote %d span paths to %s\n", len(res.SpanProfile.Paths), ff.profileOut)
	}
	if ff.incidentOut != "" {
		err := writeFile(ff.incidentOut, func(w io.Writer) error {
			return obs.WriteIncidentsJSONL(w, res.Incidents)
		})
		if err != nil {
			return fmt.Errorf("incident-out: %w", err)
		}
		fmt.Printf("wrote %d incident records to %s (%d triggered)\n",
			len(res.Incidents), ff.incidentOut, res.IncidentsTotal)
	}
	if ff.reportOut != "" {
		if err := writeFile(ff.reportOut, bench.NewRunReport(res).WriteJSON); err != nil {
			return fmt.Errorf("report-out: %w", err)
		}
		fmt.Printf("wrote unified run report to %s\n", ff.reportOut)
	}
	return nil
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

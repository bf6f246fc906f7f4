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
		opts.ChaosProfile = *chaosProf
		opts.ChaosSeed = *chaosSeed
		opts.Profiling = *profileOut != "" || *reportOut != ""
		opts.Percentiles = *percentiles || *reportOut != ""
		opts.ExactQuantiles = *exactQuant
		opts.IncidentEvents = *incidentN
		if opts.IncidentEvents == 0 && *incidentOut != "" {
			opts.IncidentEvents = obs.DefaultIncidentEvents
		}
		if err := forensicRun(*workload, *platform, opts, *profileOut, *incidentOut, *reportOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(opts.Header())

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

// forensicRun is the figure harness's drill-down mode: instead of
// regenerating tables it executes one workload with the profiler, the
// percentile extractor, and the flight recorder armed as opts says, prints
// the unified report, and writes whichever artifacts were asked for. The
// knobs are all passive, so the virtual times match the figure runs exactly.
func forensicRun(workload, platform string, opts bench.Options, profileOut, incidentOut, reportOut string) error {
	res, err := bench.RunWorkload(workload, platform, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: %.6f s (virtual)\n\n", res.Workload, res.Platform, res.Seconds)
	bench.NewRunReport(res).Fprint(os.Stdout)
	if profileOut != "" {
		if err := writeFile(profileOut, res.SpanProfile.WriteFolded); err != nil {
			return fmt.Errorf("profile-out: %w", err)
		}
		fmt.Printf("wrote %d span paths to %s\n", len(res.SpanProfile.Paths), profileOut)
	}
	if incidentOut != "" {
		err := writeFile(incidentOut, func(w io.Writer) error {
			return obs.WriteIncidentsJSONL(w, res.Incidents)
		})
		if err != nil {
			return fmt.Errorf("incident-out: %w", err)
		}
		fmt.Printf("wrote %d incident records to %s (%d triggered)\n",
			len(res.Incidents), incidentOut, res.IncidentsTotal)
	}
	if reportOut != "" {
		if err := writeFile(reportOut, bench.NewRunReport(res).WriteJSON); err != nil {
			return fmt.Errorf("report-out: %w", err)
		}
		fmt.Printf("wrote unified run report to %s\n", reportOut)
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

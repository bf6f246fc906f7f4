// Command benchmark is the repository's benchmark: seven workloads over the
// simulator, host cost in noise-normalised seconds, exact simulated results
// and per-layer probes. See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out benchmark/out/result.json   every workload, 10 rounds, traced round, probes
//	go run ./benchmark --workload olap --seed 3 --seconds 10 --trace 0   one workload, one JSON line
//	go run ./benchmark -compare a.json b.json                   verdict per workload × metric
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run this workload alone and print one JSON result line (default: every workload)")
		seed         = fs.Int64("seed", 1, "seed of every generator and fault plan")
		seconds      = fs.Float64("seconds", 10, "with -workload: how long to keep starting rounds")
		traceOn      = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs a traced round plus the probes and prints the per-layer metrics")
		rounds       = fs.Int("rounds", 10, "without -workload: timed rounds per workload")
		smoke        = fs.Bool("smoke", false, "use the small input sizes of the package test")
		out          = fs.String("out", "", "without -workload: write result.json here and trace.json beside it")
		compare      = fs.Bool("compare", false, "compare two result.json files given as arguments")
		writeGolden  = fs.String("write-golden", "", "record golden.json at this path (seed 1, both size sets) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result.json paths"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *writeGolden != "":
		g, err := recordGolden()
		if err != nil {
			return fail(err)
		}
		if err := writeJSON(*writeGolden, g); err != nil {
			return fail(err)
		}
		return 0
	}

	sz := fullSizes()
	if *smoke {
		sz = smokeSizes()
	}
	g, err := loadGolden()
	if err != nil {
		return fail(fmt.Errorf("golden.json: %w", err))
	}
	if *workloadName != "" {
		return runOne(stdout, stderr, sz, g, *workloadName, *seed, *seconds, *traceOn == 1)
	}
	rep, spans := runAll(sz, g, *seed, *rounds)
	printReport(stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
		var trace bytes.Buffer
		if err := writeChromeTrace(&trace, spans); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(*out), "trace.json"), trace.Bytes(), 0o644); err != nil {
			return fail(err)
		}
	}
	for _, w := range rep.Workloads {
		if w.OpsFailed > 0 {
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// hostInfo says where the numbers were taken.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	SimWorkers int     `json:"sim_workers"`
	CalibMinMs float64 `json:"calib_ms_min"`
	CalibMedMs float64 `json:"calib_ms_median"`
	CalibMaxMs float64 `json:"calib_ms_max"`
}

// report is result.json.
type report struct {
	Schema    int              `json:"schema"`
	Sizes     string           `json:"sizes"`
	Seed      int64            `json:"seed"`
	Rounds    int              `json:"rounds"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll is the full invocation: rounds timed rounds of every workload,
// round-robin so that each workload's samples span the whole invocation,
// then one traced round of each and the probes.
func runAll(sz sizes, g *golden, seed int64, rounds int) (*report, []span) {
	h := newHarness(sz, seed)
	var sessions []*session
	for _, w := range allWorkloads() {
		sessions = append(sessions, newSession(h, w))
	}
	for i := 0; i < rounds; i++ {
		for _, s := range sessions {
			if n := s.w.everyNth; n > 1 && i%n != 0 {
				continue
			}
			s.round(nil)
		}
	}
	rec := newRecorder()
	spansOf := make([][]span, len(sessions))
	for i, s := range sessions {
		start := len(rec.spans)
		s.round(rec)
		spansOf[i] = rec.spans[start:]
	}
	probes := h.runProbes()

	rep := &report{Schema: 1, Sizes: sz.name, Seed: seed, Rounds: rounds}
	for i, s := range sessions {
		s.checkGolden(g)
		rep.Workloads = append(rep.Workloads, s.report(s.layerMetrics(spansOf[i], probes)))
	}
	calibMin, calibMed, calibMax := h.k.calibMs()
	rep.Host = hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(), SimWorkers: simWorkers(),
		CalibMinMs: calibMin, CalibMedMs: calibMed, CalibMaxMs: calibMax,
	}
	return rep, rec.spans
}

// printReport prints every metric of every workload by name with its unit.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "benchmark: sizes=%s seed=%d rounds=%d nproc=%d go=%s calib=%.1f/%.1f/%.1f ms (min/median/max)\n",
		rep.Sizes, rep.Seed, rep.Rounds, rep.Host.NProc, rep.Host.GoVersion,
		rep.Host.CalibMinMs, rep.Host.CalibMedMs, rep.Host.CalibMaxMs)
	for _, wl := range rep.Workloads {
		printWorkload(w, wl)
	}
}

func printWorkload(w io.Writer, wl workloadReport) {
	fmt.Fprintf(w, "\n== %s: ops=%d ops_failed=%d ==\n", wl.Name, wl.Ops, wl.OpsFailed)
	for _, f := range wl.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, def := range endToEndMetrics {
		m := wl.EndToEnd[def.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s q1=%.6g q3=%.6g min=%.6g n=%d spread=%.1f%%\n",
			def.Name, m.Median, def.Unit, m.Q1, m.Q3, m.Min, m.N, 100*m.spread())
	}
	if wl.PerLayer == nil {
		return
	}
	for _, def := range perLayerMetrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", def.Name, wl.PerLayer[def.Name].Value, def.Unit)
	}
}

// runOne is the single-workload invocation the acceptance procedure drives:
// rounds of one workload for about `seconds`, then one line of JSON.
func runOne(stdout, stderr io.Writer, sz sizes, g *golden, name string, seed int64, seconds float64, traced bool) int {
	var w *workload
	for _, cand := range allWorkloads() {
		if cand.name == name {
			w = cand
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	h := newHarness(sz, seed)
	s := newSession(h, w)
	var per map[string]float64
	if traced {
		// One untraced round for the overhead ratio, one traced round,
		// then the probes.
		s.round(nil)
		rec := newRecorder()
		s.round(rec)
		per = s.layerMetrics(rec.spans, h.runProbes())
	} else {
		// Start another round only while it is expected to end inside the
		// budget, so a run lasts about `seconds` whatever a round costs.
		start := nowNs()
		budget := int64(seconds * 1e9)
		for {
			s.round(nil)
			if nowNs()-start+s.longestNs > budget {
				break
			}
		}
	}
	s.checkGolden(g)
	rep := s.report(per)
	printWorkload(stdout, rep)

	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]layerValue `json:"metrics"`
	}{Correct: rep.OpsFailed == 0, Attempted: rep.Ops, Failed: rep.OpsFailed, Metrics: rep.PerLayer}
	if !traced {
		line.Metrics = make(map[string]layerValue)
		for _, def := range endToEndMetrics {
			line.Metrics[def.Name] = layerValue{Value: rep.EndToEnd[def.Name].Median, Unit: def.Unit}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	if rep.OpsFailed > 0 {
		return 1
	}
	return 0
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestNormalise(t *testing.T) {
	k := &kernel{div: 1}
	// Kernels at their nominal wall time leave raw time unchanged.
	if got := k.normalise(2e9, kernelNominalNs, kernelNominalNs); math.Abs(got-2) > 1e-12 {
		t.Errorf("nominal host: got %v s, want 2", got)
	}
	// A host running at half speed doubles region and kernels alike.
	if got := k.normalise(4e9, 2*kernelNominalNs, 2*kernelNominalNs); math.Abs(got-2) > 1e-12 {
		t.Errorf("half-speed host: got %v s, want 2", got)
	}
	// The yardstick is the mean of the two adjacent kernels.
	if got := k.normalise(3e9, kernelNominalNs, 2*kernelNominalNs); math.Abs(got-2) > 1e-12 {
		t.Errorf("host slowing down across the region: got %v s, want 2", got)
	}
	// A shorter kernel has a proportionally shorter nominal time.
	short := &kernel{div: 20}
	if got := short.normalise(2e9, kernelNominalNs/20, kernelNominalNs/20); math.Abs(got-2) > 1e-12 {
		t.Errorf("short kernel: got %v s, want 2", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 3, 2}, [3]float64{1.25, 2.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		s := summarise(tc.in)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	s := summarise([]float64{4, 2, 8, 6})
	if s.Min != 2 || s.N != 4 {
		t.Errorf("min/n = %v/%d, want 2/4", s.Min, s.N)
	}
	if got := (summary{Median: 10, Q1: 9, Q3: 11.5}).spread(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("spread = %v, want 0.25", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNs: 0, EndNs: 100},
		// Two overlapping children: together they cover [10,50).
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 50},
		// A child that sticks out of its parent counts up to the parent's end.
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},
		// A grandchild is covered time of its parent only.
		{ID: 5, Parent: 2, Name: "a", StartNs: 15, EndNs: 25},
		// A child inside another child's interval adds nothing.
		{ID: 6, Parent: 1, Name: "d", StartNs: 12, EndNs: 20},
	}
	want := []int64{100 - 40 - 10, 30 - 10, 20, 30, 10, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["a"] != 30 {
		t.Errorf("self time by name a = %d, want 30", by["a"])
	}
}

func TestRecorderNesting(t *testing.T) {
	var nilRec *recorder
	nilRec.in("x", func() {}) // a nil recorder records nothing and does not crash
	rec := &recorder{workload: "w"}
	rec.in("outer", func() {
		rec.in("inner", func() {})
		h := rec.begin("left-open")
		_ = h
	})
	if len(rec.stack) != 0 {
		t.Fatalf("stack not empty after outer span closed: %v", rec.stack)
	}
	if rec.spans[1].Parent != rec.spans[0].ID || rec.spans[2].Parent != rec.spans[0].ID {
		t.Errorf("children not parented to the outer span: %+v", rec.spans)
	}
	for _, s := range rec.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s left open", s.Name)
		}
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, rec.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(rec.spans)+1 {
		t.Errorf("%d trace events, want %d spans + 1 process name", len(doc.TraceEvents), len(rec.spans))
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{Name: "host_s", Better: "lower", Bound: 0.10}
	mv := func(samples ...float64) metricValue {
		return metricValue{summary: summarise(samples), Samples: samples}
	}
	tight := mv(1.00, 1.01, 0.99, 1.00, 1.01, 0.99)
	for _, tc := range []struct {
		name string
		b    metricValue
		want string
	}{
		{"same", mv(1.00, 1.01, 0.99, 1.00, 1.02, 0.99), "within-bound"},
		{"slower beyond the bound", mv(1.20, 1.21, 1.19, 1.20, 1.21, 1.19), "regressed"},
		{"faster, ranges apart", mv(0.80, 0.81, 0.79, 0.80, 0.81, 0.79), "improved"},
		{"median beyond the bound but ranges overlap", mv(0.9, 1.0, 1.2, 1.3, 1.4, 0.95), "unresolved"},
		{"inside the bound but too noisy to tell", mv(0.8, 1.0, 1.2, 1.0, 0.85, 1.15), "unresolved"},
	} {
		if _, got := verdict(def, tight, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Direction: for a higher-is-better metric a larger value is an improvement.
	up := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	if _, got := verdict(up, tight, mv(1.20, 1.21, 1.19, 1.20, 1.21, 1.19)); got != "improved" {
		t.Errorf("higher-is-better: verdict %q, want improved", got)
	}
}

// benchmarkJSON is BENCHMARK.json as the acceptance procedure reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields() // the file has exactly these keys
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("BENCHMARK.json: run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	return b
}

func isPerLayer(name string) bool {
	for _, def := range perLayerMetrics {
		if def.Name == name {
			return true
		}
	}
	return false
}

// The smoke run is shared by the tests that read its report.
var smokeReport *report

func smoke(t *testing.T) *report {
	t.Helper()
	if smokeReport == nil {
		g, err := loadGolden()
		if err != nil {
			t.Fatal(err)
		}
		smokeReport, _ = runAll(smokeSizes(), g, goldenSeed, 1)
	}
	return smokeReport
}

// The names result.json emits and the names BENCHMARK.json declares are the
// same set, with the same units, directions and bounds.
func TestSchema(t *testing.T) {
	b := readBenchmarkJSON(t)
	rep := smoke(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var wantWorkloads, gotWorkloads []string
	for _, w := range b.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("BENCHMARK.json workload %q: bad name or why", w.Name)
		}
	}
	for _, w := range rep.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	if strings.Join(gotWorkloads, ",") != strings.Join(wantWorkloads, ",") {
		t.Errorf("workloads: result.json has %v, BENCHMARK.json has %v", gotWorkloads, wantWorkloads)
	}
	for _, w := range allWorkloads() {
		for _, bw := range b.Workloads {
			if bw.Name == w.name && bw.Why != w.why {
				t.Errorf("workload %s: BENCHMARK.json why differs from the code's", w.name)
			}
		}
	}

	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, def := range endToEndMetrics {
		m := b.EndToEnd[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, def)
		}
		if m.Bound > 0.25 || !nameRE.MatchString(m.Name) {
			t.Errorf("end-to-end metric %s: bad name or bound", m.Name)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) || len(b.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d (at most 128)", len(b.PerLayer), len(perLayerMetrics))
	}
	seen := make(map[string]bool)
	for i, def := range perLayerMetrics {
		m := b.PerLayer[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, def)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range rep.Workloads {
		if len(w.EndToEnd) != len(endToEndMetrics) || len(w.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: result.json has %d end-to-end and %d per-layer metrics, want %d and %d",
				w.Name, len(w.EndToEnd), len(w.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
		}
		for _, def := range endToEndMetrics {
			if m, ok := w.EndToEnd[def.Name]; !ok || m.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.Name, def.Name, m)
			}
		}
		for _, def := range perLayerMetrics {
			if _, ok := w.PerLayer[def.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, def.Name)
			}
		}
	}
	for _, id := range sortedKeys(namedFigures) {
		if !isPerLayer("bench.fig"+id+".host_s") || namedFigures[id] != isPerLayer("bench.fig"+id+".mallocs") {
			t.Errorf("figure %s: namedFigures and the declared bench.fig%s.* metrics disagree", id, id)
		}
	}
	for _, span := range sortedKeys(spanMetrics) {
		if !isPerLayer(spanMetrics[span]) {
			t.Errorf("span %s feeds undeclared metric %s", span, spanMetrics[span])
		}
	}
}

// Every workload passes its checks at the smoke sizes, against the golden
// record, and each layer's counters show the workload reaches it.
func TestSmoke(t *testing.T) {
	rep := smoke(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	layer := func(w workloadReport, name string) float64 { return w.PerLayer[name].Value }
	for _, w := range rep.Workloads {
		if w.OpsFailed != 0 {
			t.Errorf("%s: %d failed checks: %v", w.Name, w.OpsFailed, w.Failures)
		}
		if len(g.Sizes["smoke"][w.Name]) == 0 || len(g.Sizes["full"][w.Name]) == 0 {
			t.Errorf("%s: golden.json has no record", w.Name)
		}
		if layer(w, "harness.explained_share") <= 0 && w.Name != "suite" {
			t.Errorf("%s: explained share not reported", w.Name)
		}
		if layer(w, "ddc.read_hit_ns") <= 0 || layer(w, "sim.switch_ns") <= 0 || layer(w, "obs.virt_identical") != 1 {
			t.Errorf("%s: probes did not run", w.Name)
		}
	}
	byName := make(map[string]workloadReport)
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	for _, tc := range []struct{ workload, metric string }{
		{"olap", "ddc.remote_faults"}, {"olap", "core.calls"}, {"olap", "virt.speedup"}, {"olap", "tpch.q9_s"}, {"olap", "olap.paging_share"},
		{"spill", "storage.reads"}, {"spill", "ddc.storage_evicts"},
		{"graph-mr", "netmodel.msgs"}, {"graph-mr", "graph.run_s"}, {"graph-mr", "mapreduce.run_s"},
		{"pushdown", "core.coherence_msgs"}, {"pushdown", "sim.switches"}, {"pushdown", "core.pushdown_span_s"},
		{"chaos", "fault.injected"}, {"chaos", "netmodel.retries"},
		{"cluster", "sim.switches"}, {"cluster", "virt.s"},
		{"suite", "bench.fig15.host_s"}, {"suite", "bench.fig13.mallocs"}, {"suite", "bench.parmap.speedup"},
	} {
		if layer(byName[tc.workload], tc.metric) <= 0 {
			t.Errorf("%s: %s is %v, want positive", tc.workload, tc.metric, layer(byName[tc.workload], tc.metric))
		}
	}
	if n := layer(byName["olap"], "storage.reads"); n != 0 {
		t.Errorf("olap reads the SSD %v times; it is the workload that must bypass storage", n)
	}
}

// The single-workload invocation ends with one JSON object carrying exactly
// the declared metrics, on a seed other than the golden one.
func TestResultLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEndMetrics}, {"1", perLayerMetrics}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "cluster", "--seed", "7", "--seconds", "0.05", "--trace", tc.trace, "-smoke"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s%s", tc.trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", tc.trace, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: bad result line %s", tc.trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(line.Metrics), len(tc.defs))
		}
		for _, def := range tc.defs {
			if m, ok := line.Metrics[def.Name]; !ok || m.Value == nil || m.Unit != def.Unit {
				t.Errorf("trace %s: metric %s missing or wrong unit", tc.trace, def.Name)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload: exit 0")
	}
}

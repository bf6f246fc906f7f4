package main

import (
	"fmt"
	"runtime"
	"strings"

	"teleport/internal/bench"
)

// metricValue is one end-to-end metric of one workload over its rounds.
type metricValue struct {
	Unit string `json:"unit"`
	summary
	Samples []float64 `json:"samples"`
}

// layerValue is one per-layer metric of one workload.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is a run's exact result, as golden.json pins it.
type runRecord struct {
	Name   string `json:"name"`
	VirtNs int64  `json:"virt_ns"`
	Answer string `json:"answer"`
}

// workloadReport is everything result.json says about one workload.
type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Ops       int                    `json:"ops"`
	OpsFailed int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	// RawHostS keeps the un-normalised timed seconds per round beside the
	// normalised host_s samples.
	RawHostS []float64             `json:"raw_host_s"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
	Runs     []runRecord           `json:"runs"`
}

// session runs one workload's rounds and checks them.
type session struct {
	h        *harness
	w        *workload
	ref      map[string]uint64
	rounds   []*round // untraced, in order
	traced   *round
	failures []string
	ops      int
	failed   int
	// longestNs is the longest round so far, set-up and kernels included.
	longestNs int64
}

func newSession(h *harness, w *workload) *session {
	s := &session{h: h, w: w}
	if w.prepare != nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.fail(fmt.Sprintf("prepare: panic: %v", p))
				}
			}()
			s.ref = w.prepare(h)
		}()
	}
	return s
}

func (s *session) fail(msg string) {
	s.failed++
	s.failures = append(s.failures, msg)
}

// round runs one more round; traced rounds record spans into rec.
func (s *session) round(rec *recorder) {
	start := nowNs()
	s.h.rec = rec
	r := s.h.runRound(s.w, s.ref)
	s.h.rec = nil
	if d := nowNs() - start; d > s.longestNs {
		s.longestNs = d
	}
	first := r
	if len(s.rounds) > 0 {
		first = s.rounds[0]
	}
	s.ops += len(r.runs)
	for _, run := range r.runs {
		if run.failure != "" {
			s.fail(run.meta.name + ": " + run.failure)
		}
	}
	for _, d := range r.diffExact(first) {
		s.fail(d)
	}
	if rec != nil {
		s.traced = r
	} else {
		s.rounds = append(s.rounds, r)
	}
}

// checkGolden compares the first round with golden.json's record for these
// sizes. Only runs whose inputs were made from goldenSeed are compared: every
// run of an invocation at that seed, and the pinned ones at any seed.
func (s *session) checkGolden(g *golden) {
	want, ok := g.Sizes[s.h.sz.name][s.w.name]
	if !ok || len(s.rounds) == 0 {
		return
	}
	got := records(s.rounds[0])
	if len(got) != len(want) {
		s.fail(fmt.Sprintf("golden: %d runs, golden.json has %d", len(got), len(want)))
		return
	}
	for i, g := range got {
		run := s.rounds[0].runs[i]
		if run.failure != "" || run.meta.seed != goldenSeed {
			continue
		}
		if g != want[i] {
			s.fail(fmt.Sprintf("golden: %s virt_ns=%d answer=%s, golden.json has %s virt_ns=%d answer=%s",
				g.Name, g.VirtNs, g.Answer, want[i].Name, want[i].VirtNs, want[i].Answer))
		}
	}
}

func records(r *round) []runRecord {
	out := make([]runRecord, len(r.runs))
	for i, run := range r.runs {
		out[i] = runRecord{Name: run.meta.name, VirtNs: run.out.virtNs, Answer: fmt.Sprintf("%#016x", run.out.answer)}
	}
	return out
}

// report summarises the untraced rounds; perLayer may be nil.
func (s *session) report(perLayer map[string]float64) workloadReport {
	rep := workloadReport{
		Name: s.w.name, Why: s.w.why, Ops: s.ops, OpsFailed: s.failed, Failures: s.failures,
		EndToEnd: make(map[string]metricValue),
	}
	samples := make(map[string][]float64)
	for _, r := range s.rounds {
		for k, v := range r.endToEnd() {
			samples[k] = append(samples[k], v)
		}
		rep.RawHostS = append(rep.RawHostS, r.rawHostS())
	}
	for _, def := range endToEndMetrics {
		rep.EndToEnd[def.Name] = metricValue{Unit: def.Unit, summary: summarise(samples[def.Name]), Samples: samples[def.Name]}
	}
	if len(s.rounds) > 0 {
		rep.Runs = records(s.rounds[0])
	}
	if perLayer != nil {
		rep.PerLayer = make(map[string]layerValue)
		for _, def := range perLayerMetrics {
			rep.PerLayer[def.Name] = layerValue{Value: perLayer[def.Name], Unit: def.Unit}
		}
	}
	return rep
}

// layerMetrics computes the workload's per-layer block from its traced
// round, that round's spans and the probes' unit costs. For the suite it
// also makes the one extra run bench.parmap.speedup needs.
func (s *session) layerMetrics(spans []span, probes map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range probes {
		out[k] = v
	}
	tr := s.traced

	// Exact counts and simulated time.
	c := tr.totalCounts()
	for _, def := range perLayerMetrics {
		if v, ok := c[def.Name]; ok {
			scale := def.scale
			if scale == 0 {
				scale = 1
			}
			out[def.Name] = float64(v) * scale
		}
	}
	out["virt.s"], out["virt.speedup"] = tr.virt()

	// Span self times, normalised by the round's own raw-to-normalised
	// ratio (spans are recorded in raw nanoseconds).
	e2e := tr.endToEnd()
	factor := 1.0
	if raw := tr.rawHostS() + float64(tr.setupRaw)/1e9; raw > 0 {
		factor = (e2e["host_s"] + e2e["setup_s"]) / raw
	}
	self := selfByName(spans)
	for name, metric := range spanMetrics {
		out[metric] = float64(self[name]) / 1e9 * factor
	}

	// Per-figure host cost (suite only) and the paging share (olap only).
	var local, base float64
	for _, run := range tr.runs {
		if id, ok := strings.CutPrefix(run.meta.name, "fig"); ok && s.w.name == "suite" {
			key := "bench.fig_rest.host_s"
			if withMallocs, named := namedFigures[id]; named {
				key = "bench.fig" + id + ".host_s"
				if withMallocs {
					out["bench.fig"+id+".mallocs"] = float64(run.mallocs)
				}
			}
			out[key] += run.normS
		}
		switch run.meta.plat {
		case "local":
			local += run.normS
		case "base-ddc":
			base += run.normS
		}
	}
	if local > 0 && base > 0 {
		out["olap.paging_share"] = (base - local) / base
	}

	// The harness itself.
	if len(s.rounds) > 0 {
		var untraced []float64
		for _, r := range s.rounds {
			untraced = append(untraced, r.endToEnd()["host_s"])
		}
		if m := median(untraced); m > 0 {
			out["harness.trace_overhead"] = e2e["host_s"] / m
		}
	}
	out["harness.calib_ms.min"], out["harness.calib_ms.median"], out["harness.calib_ms.max"] = s.h.k.calibMs()
	if s.w.name == "suite" {
		out["bench.parmap.speedup"] = s.parmapSpeedup()
	}
	out["harness.peak_rss_mb"] = peakRSSMB()
	out["harness.explained_share"] = explainedShare(out, e2e["host_s"])
	return out
}

// explainedShare is the part of host_s that the layers' counts times their
// unit costs account for; the remainder is application compute and whatever
// the probes do not model. Every remote fault is costed as a random-read
// miss (which includes its fabric messages), so only the messages beyond
// one per fault are costed as sends.
func explainedShare(m map[string]float64, hostS float64) float64 {
	if hostS <= 0 {
		return 0
	}
	extraMsgs := m["netmodel.msgs"] - m["ddc.cache_misses"]
	if extraMsgs < 0 {
		extraMsgs = 0
	}
	ns := m["ddc.cache_hits"]*m["ddc.read_hit_ns"] +
		m["ddc.cache_misses"]*m["ddc.read_miss_ns"] +
		(m["storage.reads"]+m["storage.writes"])*m["storage.read_page_ns"] +
		extraMsgs*m["netmodel.send_ns"] +
		m["core.calls"]*m["core.push_ro_ns"] +
		m["sim.switches"]*m["sim.switch_ns"] +
		m["fault.injected"]*m["fault.send_overhead_ns"]
	return ns / 1e9 / hostS
}

// parmapSpeedup regenerates the suite's figures with bench's data-point
// fan-out at one worker per core and returns sequential ÷ parallel host
// time; sequential is the traced round's host_s.
func (s *session) parmapSpeedup() float64 {
	opts := s.h.sz.suite
	opts.Seed = s.h.seed
	opts.Parallel = runtime.NumCPU()
	par := s.h.freshRegion(func() {
		for _, id := range s.h.sz.figures() {
			if _, err := bench.Run(id, opts); err != nil {
				panic(err)
			}
		}
	})
	if par <= 0 {
		return 0
	}
	return s.traced.endToEnd()["host_s"] / par
}

package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

func obsOpts() Options {
	return Options{Scale: 0.5, GraphNV: 8000, Words: 30000, Seed: 1, CacheFrac: 0.02}
}

// A run's time is timed once, as the sum of its operators' times
// (profile.Exec.Total). That is the query's whole interval only if nothing
// between operators takes virtual time: every public workload on every
// platform, with and without chaos, is held to it against the driving
// thread's clock read around the query.
func TestOperatorTimesSumToQueryTime(t *testing.T) {
	for _, chaos := range []string{"", "chaos"} {
		o := smokeOpts()
		o.ChaosProfile = chaos
		opts, err := o.resolve()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range publicWorkloads() {
			for _, pl := range platforms {
				spec := runSpec{platform: pl.plat}
				if pl.auto {
					ops, _ := costModelPush(cell(w, opts, runSpec{platform: platBase})())
					spec.pushOps = pushing(ops)
				}
				ex, query, _ := prepare(w, opts, spec)
				start := ex.T.Now()
				query(ex)
				if got, want := ex.Total(), ex.T.Now()-start; got != want {
					t.Errorf("%s on %s (chaos %q): operators sum to %v, the query took %v", w.Name, pl.name, chaos, got, want)
				}
				ex.P.Release()
			}
		}
	}
}

// The attribution partitions the run: every component is non-negative, the
// compute residual is non-negative, and on a DDC platform the wire
// components are non-zero. Per operator, attributed time can never exceed
// the operator's elapsed time, and the run's time is the operators' sum. The same run pins Figure 19's shape:
// the six components of a pushdown call plus its queue wait — each one span,
// closed once — add up to the call, call by call, and to the runtime's phase
// sums over the run.
func TestReportComponentsSumToTotal(t *testing.T) {
	opts, err := obsOpts().resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceCap, opts.Metrics = 1<<16, true
	out := run(findWorkload("Q6"), opts, runSpec{platform: platTeleport})
	r := RunReport{Nanos: int64(out.Time), Comps: out.Comps, Ops: out.Profile}
	if r.Nanos <= 0 {
		t.Fatalf("report total = %d", r.Nanos)
	}
	for c, v := range r.Comps {
		if v < 0 {
			t.Fatalf("component %d negative: %d", c, v)
		}
	}
	if r.ComputeNs() < 0 {
		t.Fatalf("compute residual negative: %d (total %d, attributed %d)",
			r.ComputeNs(), r.Nanos, r.Comps.TotalNs())
	}
	if r.Comps.LayerNs("net") == 0 {
		t.Fatal("teleport run attributed no wire time")
	}
	if len(r.Ops) == 0 {
		t.Fatal("report has no operator rows")
	}
	var opNs int64
	for _, o := range r.Ops {
		if o.Attr.TotalNs() > int64(o.Time) {
			t.Fatalf("operator %s attributed %dns of %dns elapsed",
				o.Name, o.Attr.TotalNs(), o.Time)
		}
		opNs += int64(o.Time)
	}
	if r.Nanos != opNs {
		t.Fatalf("Time (%d) should equal summed operator time (%d)", r.Nanos, opNs)
	}

	// Figure 19. The direct children of a pushdown span are its components:
	// push-sync (pre, post), rpc (request, response), push-queue, push-setup,
	// push-exec.
	spans := trace.PairSpans(out.Proc.M.Trace.Events())
	call := map[uint64]sim.Time{} // pushdown span id → Σ children
	var calls int64
	var total sim.Time
	byKind := map[trace.Kind]sim.Time{}
	for _, s := range spans {
		if s.Kind == trace.KindPushdown {
			call[s.ID] = 0
			calls++
			total += s.Duration()
		}
	}
	for _, s := range spans {
		if _, ok := call[s.Parent]; ok {
			call[s.Parent] += s.Duration()
			byKind[s.Kind] += s.Duration()
		}
	}
	for _, s := range spans {
		if s.Kind == trace.KindPushdown && call[s.ID] != s.Duration() {
			t.Fatalf("pushdown call %d lasted %v but its components sum to %v", s.Arg, s.Duration(), call[s.ID])
		}
	}
	rs := out.RT.Stats()
	ph := rs.Phases
	if calls == 0 || calls != rs.Calls || ph.Total() != total {
		t.Fatalf("%d calls totalling %v in the trace; the runtime counts %d totalling %v", calls, total, rs.Calls, ph.Total())
	}
	for _, c := range []struct {
		name  string
		phase sim.Time
		kind  trace.Kind
	}{
		{"pre+post sync", ph.PreSync + ph.PostSync, trace.KindPushSync},
		{"request+response", ph.Request + ph.Response, trace.KindRPC},
		{"queue", ph.Queue, trace.KindPushQueue},
		{"setup", ph.CtxSetup, trace.KindPushSetup},
		{"exec", ph.Exec, trace.KindPushExec},
	} {
		if c.phase != byKind[c.kind] {
			t.Fatalf("phase %s sums to %v over the calls, its spans to %v", c.name, c.phase, byKind[c.kind])
		}
	}
	// One close feeds every sink: the span above, the histogram, the component.
	if h := out.Metrics.Histograms["push.total.ns"]; h.Count != rs.Calls || h.SumNs != int64(total) {
		t.Fatalf("push.total.ns = %d calls, %dns; the spans say %d, %v", h.Count, h.SumNs, rs.Calls, total)
	}
	if q := out.Metrics.Histograms["push.queue.ns"].SumNs; q != int64(ph.Queue) || r.Comps[metrics.CompPushQueue] != q {
		t.Fatalf("queue wait: histogram %d, phases %v, component %d", q, ph.Queue, r.Comps[metrics.CompPushQueue])
	}

	// The rendered attribution must not be empty.
	var buf bytes.Buffer
	r.fprintAttribution(&buf)
	if buf.Len() == 0 {
		t.Fatal("report rendered empty")
	}
}

// Two same-seed instrumented runs must produce byte-identical metrics
// snapshots and valid, nesting Chrome trace JSON.
func TestMetricsAndTraceExportDeterministic(t *testing.T) {
	opts := obsOpts()
	opts.TraceCap = 1 << 16
	opts.Metrics = true
	a, err := RunWorkload("Q6", "teleport", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload("Q6", "teleport", opts)
	if err != nil {
		t.Fatal(err)
	}
	var aj, bj bytes.Buffer
	if err := a.Metrics.WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := b.Metrics.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Fatal("same-seed metrics snapshots differ")
	}
	if len(a.Metrics.Counters) == 0 || len(a.Metrics.Histograms) == 0 {
		t.Fatalf("teleport run published no metrics: %v", a.Metrics)
	}

	var cj bytes.Buffer
	if err := trace.WriteChromeTrace(&cj, a.Trace); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(cj.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	spans := trace.PairSpans(a.Trace)
	var sawPushChild, sawFault bool
	for _, s := range spans {
		if s.Parent != 0 && (s.Kind == trace.KindPushQueue || s.Kind == trace.KindPushExec ||
			s.Kind == trace.KindPushSetup || s.Kind == trace.KindPushSync) {
			sawPushChild = true
		}
		if s.Kind == trace.KindRemoteFault && s.Complete {
			sawFault = true
		}
	}
	if !sawPushChild || !sawFault {
		t.Fatalf("trace lacks nested pushdown phases (%v) or fault spans (%v)",
			sawPushChild, sawFault)
	}
}

// The golden observability guarantee: arming the whole analysis layer — the
// profiler and the flight recorder on a default ring, the percentile
// extractor on a registry — changes nothing about the simulation. Same-seed
// runs with and without it report identical answers, virtual times, and
// fault counters, on clean and chaos profiles alike.
func TestAnalysisLayerDoesNotPerturbRuns(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		platform string
		chaos    string
	}{
		{"clean-teleport", "Q6", "teleport", ""},
		{"clean-base", "SSSP", "base-ddc", ""},
		{"chaos-teleport", "Q6", "teleport", "chaos"},
		{"midcrash-teleport", "Q6", "teleport", "mid-crash"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := obsOpts()
			plain.ChaosProfile = tc.chaos
			armed := plain
			armed.TraceCap, armed.Metrics = DefaultTraceCap, true

			a, err := RunWorkload(tc.workload, tc.platform, plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunWorkload(tc.workload, tc.platform, armed)
			if err != nil {
				t.Fatal(err)
			}
			if a.Nanos != b.Nanos {
				t.Fatalf("analysis layer perturbed virtual time: %dns (off) vs %dns (on)",
					a.Nanos, b.Nanos)
			}
			aj, _ := json.Marshal(a.Ops)
			bj, _ := json.Marshal(b.Ops)
			if a.Comps != b.Comps || !bytes.Equal(aj, bj) {
				t.Fatalf("attribution diverged:\noff: %v %s\non:  %v %s", a.Comps, aj, b.Comps, bj)
			}
			if tc.chaos != "" {
				if a.Fault == nil || b.Fault == nil {
					t.Fatal("chaos run missing a fault report")
				}
				// Fault counters must match; the armed run additionally
				// carries tail percentiles, so compare with those cleared.
				bf := *b.Fault
				bf.PushE2E, bf.RemoteFault, bf.PoolStall = nil, nil, nil
				af, _ := json.Marshal(a.Fault)
				bfj, _ := json.Marshal(&bf)
				if !bytes.Equal(af, bfj) {
					t.Fatalf("fault counters diverged:\noff: %s\non:  %s", af, bfj)
				}
			}
			if b.SpanProfile == nil || len(b.SpanProfile.Paths) == 0 {
				t.Fatal("armed run produced no span profile")
			}
			if len(b.Latency) == 0 {
				t.Fatal("armed run produced no latency summary")
			}
		})
	}
}

// An incident's counter delta is read off the layers' typed stats, which are
// there whatever is attached: arming the registry and its percentile
// extractor beside the flight recorder changes no incident record, and the
// rollback incident shows the rollback.
func TestIncidentDeltaIndependentOfObservers(t *testing.T) {
	alone := Options{Scale: 0.25, Seed: 1, CacheFrac: 0.02, ChaosProfile: "chaos", TraceCap: DefaultTraceCap}
	armed := alone
	armed.Metrics = true
	a, err := RunWorkload("Q6", "teleport", alone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload("Q6", "teleport", armed)
	if err != nil {
		t.Fatal(err)
	}
	var aj, bj bytes.Buffer
	if err := obs.WriteIncidentsJSONL(&aj, a.Incidents); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteIncidentsJSONL(&bj, b.Incidents); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Fatalf("incident records depend on the other observers:\nrecorder alone: %s\nall attached:   %s", aj.Bytes(), bj.Bytes())
	}
	if len(a.Incidents) == 0 || a.Incidents[0].Kind != "push-rollback" || a.Incidents[0].Delta["push.rollbacks"] != 1 {
		t.Fatalf("first incident should be a push-rollback whose delta counts it: %+v", a.Incidents)
	}
}

// Same-seed reruns with the full analysis layer must serialise
// byte-identical artifacts: folded stacks, incident JSONL, and the unified
// run-report JSON.
func TestAnalysisArtifactsDeterministic(t *testing.T) {
	opts := obsOpts()
	opts.ChaosProfile = "chaos"
	opts.TraceCap, opts.Metrics = DefaultTraceCap, true

	render := func() (folded, jsonl, report []byte) {
		res, err := RunWorkload("Q6", "teleport", opts)
		if err != nil {
			t.Fatal(err)
		}
		var fb, ib, rb bytes.Buffer
		if err := res.SpanProfile.WriteFolded(&fb); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteIncidentsJSONL(&ib, res.Incidents); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&rb); err != nil {
			t.Fatal(err)
		}
		return fb.Bytes(), ib.Bytes(), rb.Bytes()
	}
	f1, i1, r1 := render()
	f2, i2, r2 := render()
	if !bytes.Equal(f1, f2) {
		t.Fatal("folded stacks differ across same-seed reruns")
	}
	if !bytes.Equal(i1, i2) {
		t.Fatal("incident JSONL differs across same-seed reruns")
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("run-report JSON differs across same-seed reruns")
	}
	if len(f1) == 0 || len(r1) == 0 {
		t.Fatal("artifacts empty")
	}
	// The chaos profile's mid-run crash must have tripped the recorder.
	if len(i1) == 0 {
		t.Fatal("chaos run recorded no incidents")
	}
	// Every folded line is "path selfNs".
	for _, line := range bytes.Split(bytes.TrimSpace(f1), []byte("\n")) {
		if len(bytes.Fields(line)) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
	}
}

// The percentile surface is wired through: every operation class's
// quantiles sit in order inside its [min, max] envelope, the FaultReport
// carries tail pointers on chaos runs, and the profile's hot path agrees
// with the attribution report's dominant component.
func TestPercentileAndProfileWiring(t *testing.T) {
	opts := obsOpts()
	opts.ChaosProfile = "chaos"
	opts.TraceCap, opts.Metrics = DefaultTraceCap, true
	res, err := RunWorkload("Q6", "teleport", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latency) == 0 {
		t.Fatal("no latency summary")
	}
	sawE2E := false
	for _, ol := range res.Latency {
		if ol.P50 < float64(ol.MinNs) || ol.P50 > ol.P999 || ol.P999 > float64(ol.MaxNs) {
			t.Fatalf("%s quantiles inconsistent: %+v", ol.Name, ol.Percentiles)
		}
		if ol.Name == "push.e2e.ns" {
			sawE2E = true
		}
	}
	if !sawE2E {
		t.Fatal("teleport run published no push.e2e.ns histogram")
	}
	if res.Fault == nil || res.Fault.PushE2E == nil || res.Fault.RemoteFault == nil {
		t.Fatalf("fault report missing tail percentiles: %+v", res.Fault)
	}
	if res.IncidentsTotal == 0 || len(res.Incidents) == 0 {
		t.Fatal("chaos run tripped no incidents")
	}
	rr := &res.RunReport
	if len(rr.HotPaths) == 0 || rr.ProfileSelfNs <= 0 {
		t.Fatalf("run report has no hot paths: %+v", rr)
	}
	var buf bytes.Buffer
	rr.Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatal("run report rendered empty")
	}
}

// A fault-free run has a nil *FaultReport; printing it must not panic.
func TestFaultReportNilString(t *testing.T) {
	var f *FaultReport
	if got := f.String(); got != "chaos: none" {
		t.Fatalf("nil FaultReport.String() = %q", got)
	}
	res, err := RunWorkload("Q6", "teleport", obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault != nil {
		t.Fatal("fault report present without chaos")
	}
	if got := res.Fault.String(); got != "chaos: none" {
		t.Fatalf("res.Fault.String() = %q", got)
	}
}

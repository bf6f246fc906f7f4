package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"teleport/internal/metrics"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// buildSpans records main→[child×2, other] style nesting:
//
//	main: push (40ns total) containing exec (10ns) and exec (5ns)
func buildSpans(t *testing.T) (*trace.Ring, *trace.Tracer, *sim.Thread) {
	t.Helper()
	ring := trace.New(1 << 10)
	tr := &trace.Tracer{Ring: ring}
	th := sim.NewThread("main")
	return ring, tr, th
}

func TestBuildProfileSelfTotal(t *testing.T) {
	ring, tr, th := buildSpans(t)
	outer := tr.Begin(th, trace.KindPushdown, 0, 1)
	th.Advance(10)
	inner := tr.Begin(th, trace.KindPushExec, 0, 1)
	th.Advance(10)
	tr.End(th, inner)
	th.Advance(5)
	inner2 := tr.Begin(th, trace.KindPushExec, 0, 2)
	th.Advance(5)
	tr.End(th, inner2)
	th.Advance(10)
	tr.End(th, outer)

	p := BuildProfile(ring.Events(), ring.Dropped())
	if p.DroppedEvents != 0 || p.SkippedSpans != 0 {
		t.Fatalf("unexpected truncation: %+v", p)
	}
	want := map[string]struct{ count, total, self int64 }{
		"main;pushdown":           {1, 40, 25},
		"main;pushdown;push-exec": {2, 15, 15},
	}
	if len(p.Paths) != len(want) {
		t.Fatalf("paths = %+v", p.Paths)
	}
	for _, ps := range p.Paths {
		w, ok := want[ps.Path]
		if !ok {
			t.Fatalf("unexpected path %q", ps.Path)
		}
		if ps.Count != w.count || ps.TotalNs != w.total || ps.SelfNs != w.self {
			t.Fatalf("path %q = count %d total %d self %d, want %+v",
				ps.Path, ps.Count, ps.TotalNs, ps.SelfNs, w)
		}
	}

	// Folded export: sorted, balanced, "path value" per line.
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("folded lines: %q", lines)
	}
	for _, l := range lines {
		if parts := strings.Fields(l); len(parts) != 2 {
			t.Fatalf("malformed folded line %q", l)
		}
	}
	if !strings.HasPrefix(lines[0], "main;pushdown ") {
		t.Fatalf("folded not sorted: %q", lines)
	}
}

func TestBuildProfileSkipsIncompleteAndKeepsDropped(t *testing.T) {
	ring, tr, th := buildSpans(t)
	open := tr.Begin(th, trace.KindRPC, 0, 0)
	th.Advance(10)
	done := tr.Begin(th, trace.KindSSDRead, 0, 0)
	th.Advance(10)
	tr.End(th, done)
	_ = open // never ended: must be skipped, not counted with zero duration

	p := BuildProfile(ring.Events(), 7)
	if p.DroppedEvents != 7 {
		t.Fatalf("dropped = %d", p.DroppedEvents)
	}
	if p.SkippedSpans != 1 {
		t.Fatalf("skipped = %d (want the still-open rpc span)", p.SkippedSpans)
	}
	if len(p.Paths) != 1 || p.Paths[0].Path != "main;rpc;ssd-read" {
		t.Fatalf("paths = %+v", p.Paths)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	p := &Profile{Paths: []PathStat{
		{Path: "b", SelfNs: 10},
		{Path: "a", SelfNs: 10},
		{Path: "c", SelfNs: 30},
	}}
	top := p.TopK(2)
	if len(top) != 2 || top[0].Path != "c" || top[1].Path != "a" {
		t.Fatalf("topK = %+v", top)
	}
	if got := p.TopK(0); len(got) != 3 {
		t.Fatalf("topK(0) should return all, got %d", len(got))
	}
}

func TestNilProfileHandles(t *testing.T) {
	var p *Profile
	if err := p.WriteFolded(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if p.TopK(3) != nil || p.TotalSelfNs() != 0 {
		t.Fatal("nil profile must be inert")
	}
}

func observeAll(h *metrics.Histogram, vals ...int64) {
	for _, v := range vals {
		h.Observe(sim.Time(v))
	}
}

func TestPercentilesInterpolatedWithinBucketBounds(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(sim.Time(i * 100)) // 100ns..100µs, spread across buckets
	}
	hs := reg.Snapshot().Histograms["lat"]
	p := FromHistogram(hs)
	// The true p50 is ~50µs; the containing bucket is (20µs, 50µs], so the
	// estimate must stay within it (interpolation error ≤ bucket width).
	if p.P50 < 20000 || p.P50 > 50000 {
		t.Fatalf("p50=%v outside its bucket", p.P50)
	}
	if p.P999 > float64(p.MaxNs)+1e-9 {
		t.Fatalf("p999=%v above max %d", p.P999, p.MaxNs)
	}
	// Monotone in q.
	if !(p.P50 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.P999) {
		t.Fatalf("quantiles not monotone: %+v", p)
	}
}

func TestPercentilesEdgeCases(t *testing.T) {
	if p := FromHistogram(metrics.HistogramSnapshot{}); p.Count != 0 || p.P999 != 0 {
		t.Fatalf("empty: %+v", p)
	}
	// One sample is exact: the estimate is clamped to [min, max].
	reg := metrics.NewRegistry()
	h := reg.Histogram("one")
	h.Observe(sim.Time(4242))
	p := FromHistogram(reg.Snapshot().Histograms["one"])
	if p.P50 != 4242 || p.P999 != 4242 {
		t.Fatalf("single sample: %+v", p)
	}
}

func TestLatencySummarySortedAndNilSafe(t *testing.T) {
	if LatencySummary(nil) != nil {
		t.Fatal("nil snapshot")
	}
	reg := metrics.NewRegistry()
	observeAll(reg.Histogram("op.b.ns"), 10)
	observeAll(reg.Histogram("op.a.ns"), 20)
	reg.Histogram("op.empty.ns") // zero observations: omitted
	sum := LatencySummary(reg.Snapshot())
	if len(sum) != 2 || sum[0].Name != "op.a.ns" || sum[1].Name != "op.b.ns" {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestRecorderTriggersOnDegradeEvents(t *testing.T) {
	ring := trace.New(8)
	counters := map[string]int64{"push.breaker.opens": 0}
	rec := NewRecorder(ring, 4, func(s *metrics.Snapshot) {
		for k, v := range counters {
			s.Counters[k] = v
		}
	})
	ring.SetObserver(rec.Observe)

	th := sim.NewThread("w")
	ring.Add(trace.Event{At: th.Now(), Kind: trace.KindRemoteFault, Who: "w"})
	if rec.Total() != 0 {
		t.Fatal("non-degrade event tripped the recorder")
	}
	counters["push.breaker.opens"] = 1
	ring.Add(trace.Event{At: 100, Kind: trace.KindBreakerOpen, Arg: 7, Who: "w"})
	if rec.Total() != 1 {
		t.Fatal("breaker-open event did not trip the recorder")
	}
	incs := rec.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d", len(incs))
	}
	inc := incs[0]
	if inc.Kind != "breaker-open" || inc.Seq != 1 || inc.AtNs != 100 || inc.Arg != 7 {
		t.Fatalf("incident = %+v", inc)
	}
	if inc.Delta["push.breaker.opens"] != 1 {
		t.Fatalf("delta = %+v", inc.Delta)
	}
	// The window includes the trigger itself as its last event.
	if n := len(inc.Events); n != 2 || inc.Events[n-1].Kind != "breaker-open" {
		t.Fatalf("events = %+v", inc.Events)
	}

	// Second incident: delta is relative to the first, not the run start.
	counters["push.breaker.opens"] = 3
	ring.Add(trace.Event{At: 200, Kind: trace.KindPushRollback, Arg: 2, Who: "w"})
	incs = rec.Incidents()
	if len(incs) != 2 || incs[1].Delta["push.breaker.opens"] != 2 {
		t.Fatalf("second delta = %+v", incs[1].Delta)
	}

	// A degrade-class span must trigger once (begin), not twice.
	ring.Add(trace.Event{At: 300, Kind: trace.KindFallbackLocal, Phase: trace.PhaseBegin, Span: 9, Who: "w"})
	ring.Add(trace.Event{At: 310, Kind: trace.KindFallbackLocal, Phase: trace.PhaseEnd, Span: 9, Who: "w"})
	if rec.Total() != 3 {
		t.Fatalf("span endpoints mis-triggered: total=%d", rec.Total())
	}
}

func TestRecorderWindowBoundAndJSONL(t *testing.T) {
	ring := trace.New(64)
	rec := NewRecorder(ring, 3, nil)
	ring.SetObserver(rec.Observe)
	for i := 0; i < 10; i++ {
		ring.Add(trace.Event{At: sim.Time(i), Kind: trace.KindRemoteFault, Who: "w"})
	}
	ring.Add(trace.Event{At: 99, Kind: trace.KindBreakerOpen, Who: "w"})
	incs := rec.Incidents()
	if len(incs) != 1 || len(incs[0].Events) != 3 {
		t.Fatalf("window not bounded: %+v", incs)
	}

	var a, b bytes.Buffer
	if err := WriteIncidentsJSONL(&a, rec.Incidents()); err != nil {
		t.Fatal(err)
	}
	if err := WriteIncidentsJSONL(&b, rec.Incidents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL not deterministic")
	}
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

func TestRecorderKeepsMostRecentWhenFull(t *testing.T) {
	ring := trace.New(8)
	rec := NewRecorder(ring, 2, nil)
	rec.maxKept = 3
	ring.SetObserver(rec.Observe)
	for i := 0; i < 5; i++ {
		ring.Add(trace.Event{At: sim.Time(i), Kind: trace.KindBreakerOpen, Arg: int64(i), Who: "w"})
	}
	if rec.Total() != 5 {
		t.Fatalf("total = %d", rec.Total())
	}
	incs := rec.Incidents()
	if len(incs) != 3 || incs[0].Seq != 3 || incs[2].Seq != 5 {
		t.Fatalf("retained = %+v", incs)
	}
}

func TestNilRecorderInert(t *testing.T) {
	var rec *Recorder
	rec.Observe(trace.Event{Kind: trace.KindBreakerOpen})
	if rec.Incidents() != nil || rec.Total() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if err := WriteIncidentsJSONL(&bytes.Buffer{}, rec.Incidents()); err != nil {
		t.Fatal(err)
	}
}

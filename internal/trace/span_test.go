package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"teleport/internal/metrics"
	"teleport/internal/sim"
)

// A nil tracer records nothing but is still a stopwatch: Begin/End measure
// the interval, so a caller that reports the duration needs no guard — the
// disabled-by-default contract. A live tracer with nothing attached likewise.
func TestTracerNilSafety(t *testing.T) {
	th := sim.NewThread("t")
	for _, tr := range []*Tracer{nil, {}} {
		sp := tr.Begin(th, KindRPC, 0, 0)
		if sp.id != 0 {
			t.Fatalf("ringless Begin allocated span id %d", sp.id)
		}
		th.Advance(40)
		if d := tr.End(th, sp); d != 40 {
			t.Fatalf("End = %v, want 40ns", d)
		}
		tr.Instant(th, KindEviction, 1, 0)
	}
}

// One End feeds every sink the span's kind names in the feeds table — the
// component, the histogram, the ring — with the one duration it returns;
// a fabric span is indexed by its class, and a kind without a row feeds
// only the ring.
func TestEndFeedsKindTable(t *testing.T) {
	r, reg, ts := New(16), metrics.NewRegistry(), &metrics.TimeSet{}
	tr := &Tracer{Ring: r, Times: ts, Hists: reg}
	th := sim.NewThread("t")
	span := func(k Kind, arg int64, d sim.Time) {
		sp := tr.Begin(th, k, 0, arg)
		th.Advance(d)
		if got := tr.End(th, sp); got != d {
			t.Fatalf("%v: End = %v, want %v", k, got, d)
		}
	}
	span(KindRPC, 2, 10) // class 2 = coherence
	span(KindPushQueue, 1, 0)
	span(KindPushQueue, 2, 30)
	span(KindPushRetryWait, 1, 7)
	span(KindRemoteFault, 0, 5)
	span(KindPushSetup, 1, 99)

	want := metrics.TimeSet{}
	want[metrics.CompWireCoherence], want[metrics.CompPushQueue], want[metrics.CompPushRetry] = 10, 30, 7
	if *ts != want {
		t.Fatalf("components = %v, want %v", *ts, want)
	}
	hs := reg.Snapshot().Histograms
	for name, w := range map[string][2]int64{
		"net.coherence.ns": {1, 10}, "push.queue.ns": {2, 30}, "fault.remote.ns": {1, 5}, "net.pagefault.ns": {0, 0},
	} {
		if h := hs[name]; h.Count != w[0] || h.SumNs != w[1] {
			t.Fatalf("%s = count %d sum %d, want %v", name, h.Count, h.SumNs, w)
		}
	}
	if len(hs) != 7+2 {
		t.Fatalf("histograms = %d, want the 7 wire classes + 2 observed", len(hs))
	}
	if got := len(r.Events()); got != 12 {
		t.Fatalf("ring holds %d events, want a begin/end pair per span", got)
	}
}

func TestSpanNestingAndPairing(t *testing.T) {
	r := New(64)
	tr := &Tracer{Ring: r}
	th := sim.NewThread("worker")

	outer := tr.Begin(th, KindRemoteFault, 7, 1)
	th.AdvanceNs(100)
	inner := tr.Begin(th, KindSSDRead, 7, 0)
	th.AdvanceNs(50)
	tr.End(th, inner)
	th.AdvanceNs(25)
	tr.End(th, outer)

	spans := PairSpans(r.Events())
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	o, i := spans[0], spans[1]
	if o.Kind != KindRemoteFault || i.Kind != KindSSDRead {
		t.Fatalf("kinds = %v/%v", o.Kind, i.Kind)
	}
	if i.Parent != o.ID {
		t.Fatalf("inner parent = %d, want %d", i.Parent, o.ID)
	}
	if o.Parent != 0 {
		t.Fatalf("outer parent = %d, want 0 (root)", o.Parent)
	}
	if !o.Complete || !i.Complete {
		t.Fatalf("spans incomplete: %+v %+v", o, i)
	}
	if o.Duration() != 175 || i.Duration() != 50 {
		t.Fatalf("durations = %v/%v, want 175ns/50ns", o.Duration(), i.Duration())
	}

	// Separate threads keep separate stacks: no cross-thread parentage.
	other := sim.NewThread("other")
	root := tr.Begin(other, KindPushdown, 0, 1)
	if got := PairSpans(r.Events()); got[len(got)-1].Parent != 0 {
		t.Fatalf("cross-thread span inherited a parent")
	}
	tr.End(other, root)
}

// CountByKind counts a span once (its begin); converting an instant into a
// begin/end pair keeps the count stable.
func TestCountByKindSkipsEnds(t *testing.T) {
	r := New(16)
	tr := &Tracer{Ring: r}
	th := sim.NewThread("t")
	r.Add(Event{At: th.Now(), Kind: KindCoherence, Who: "t"}) // instant
	sp := tr.Begin(th, KindCoherence, 1, 0)
	th.AdvanceNs(10)
	tr.End(th, sp)
	if got := r.CountByKind()[KindCoherence]; got != 2 {
		t.Fatalf("coherence count = %d, want 2 (instant + one span)", got)
	}
}

// Wraparound drops the oldest events; pairing must tolerate ends whose
// begins were overwritten and begins whose ends never arrived.
func TestPairSpansWraparound(t *testing.T) {
	r := New(4) // tiny ring: only the last 4 events survive
	tr := &Tracer{Ring: r}
	th := sim.NewThread("t")

	a := tr.Begin(th, KindPushdown, 0, 1)
	th.AdvanceNs(10)
	for i := 0; i < 3; i++ {
		sp := tr.Begin(th, KindRPC, 0, int64(i))
		th.AdvanceNs(5)
		tr.End(th, sp)
	}
	tr.End(th, a)

	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained = %d, want 4", len(events))
	}
	spans := PairSpans(events)
	// The retained window is (end rpc#1, begin rpc#2, end rpc#2, end a):
	// one complete span, one orphan end each for rpc#1 and the pushdown.
	var complete, orphan int
	for _, s := range spans {
		if s.Complete {
			complete++
			if s.Kind != KindRPC {
				t.Fatalf("complete span kind = %v", s.Kind)
			}
		} else {
			orphan++
			if s.Duration() != 0 {
				t.Fatalf("orphan span has duration %v", s.Duration())
			}
		}
	}
	if complete != 1 || orphan != 2 {
		t.Fatalf("complete=%d orphan=%d, want 1/2 (events: %v)", complete, orphan, events)
	}

	// CountByKind on the same window: the one retained begin per kind.
	counts := r.CountByKind()
	if counts[KindRPC] != 1 || counts[KindPushdown] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

// The Chrome export must be valid JSON with complete spans as "X" events
// carrying parentage, and thread-name metadata for Perfetto's track labels.
func TestWriteChromeTrace(t *testing.T) {
	r := New(64)
	tr := &Tracer{Ring: r}
	th := sim.NewThread("caller")
	outer := tr.Begin(th, KindPushdown, 0, 1)
	th.AdvanceNs(2000)
	inner := tr.Begin(th, KindPushExec, 0, 1)
	th.AdvanceNs(3000)
	tr.End(th, inner)
	tr.End(th, outer)
	r.Add(Event{At: th.Now(), Kind: KindPoolCrash, Who: "caller"}) // instant

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var xs, is, meta int
	var sawChild bool
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Name == "push-exec" {
				if ev.Dur != 3 { // 3000 ns = 3 µs
					t.Fatalf("push-exec dur = %v µs, want 3", ev.Dur)
				}
				if _, ok := ev.Args["parent"]; !ok {
					t.Fatalf("nested span missing parent arg: %+v", ev)
				}
				sawChild = true
			}
		case "i":
			is++
		case "M":
			meta++
		}
	}
	if xs != 2 || is != 1 || meta != 1 || !sawChild {
		t.Fatalf("X=%d i=%d M=%d child=%v, want 2/1/1/true", xs, is, meta, sawChild)
	}
}

// An end whose begin was overwritten by ring wraparound must not mispair
// with a surviving begin, miscount in CountByKind, or dangle in the Chrome
// export: the orphan keeps its own span ID, counts only as retained begins
// do, and exports as an instant mark, never an unbalanced "X".
func TestWraparoundOrphanEndIsolation(t *testing.T) {
	r := New(3) // retains: (end long#1, begin short#2, end short#2)
	tr := &Tracer{Ring: r}
	th := sim.NewThread("t")

	long := tr.Begin(th, KindPushdown, 7, 1)
	th.AdvanceNs(100)
	tr.End(th, long) // begin already evicted once two more events land
	short := tr.Begin(th, KindRPC, 0, 2)
	th.AdvanceNs(5)
	tr.End(th, short)

	events := r.Events()
	if len(events) != 3 || r.Dropped() != 1 {
		t.Fatalf("retained=%d dropped=%d, want 3/1", len(events), r.Dropped())
	}

	spans := PairSpans(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	var orphan, complete *Span
	for i := range spans {
		if spans[i].Complete {
			complete = &spans[i]
		} else {
			orphan = &spans[i]
		}
	}
	if complete == nil || orphan == nil {
		t.Fatalf("want one complete + one orphan, got %+v", spans)
	}
	// No mispair: the orphan end kept its own ID and did not close (or
	// distort) the surviving rpc span.
	if orphan.ID != long.id || orphan.Duration() != 0 || orphan.Kind != KindPushdown {
		t.Fatalf("orphan = %+v", orphan)
	}
	if complete.ID != short.id || complete.Kind != KindRPC || complete.Duration() != sim.Time(5) {
		t.Fatalf("complete = %+v", complete)
	}

	// No miscount: only the retained begin counts; the orphan end does not
	// resurrect the pushdown's count.
	counts := r.CountByKind()
	if counts[KindRPC] != 1 || counts[KindPushdown] != 0 {
		t.Fatalf("counts = %v", counts)
	}

	// No dangling end in the Chrome export: exactly one balanced "X" (the
	// complete span) and the orphan as an instant mark.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			Name string   `json:"name"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var xs, marks int
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Name != "rpc" || ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("dangling or negative X event: %+v", ev)
			}
		case "i":
			marks++
		}
	}
	if xs != 1 || marks != 1 {
		t.Fatalf("X=%d i=%d, want 1 balanced span and 1 orphan mark", xs, marks)
	}
}

package trace

import (
	"teleport/internal/metrics"
	"teleport/internal/sim"
)

// This file grows the flat event ring into a span layer. In the ring a
// Tracer allocates span IDs, tracks one open-span stack per simulated thread
// (the scheduler runs one thread at a time, so no locking), and records each
// span as a PhaseBegin/PhaseEnd event pair. Parentage is captured at begin
// time from the innermost open span of the same thread, so a remote fault
// nests its storage-fault child, which nests its SSD read, and a pushdown
// nests its queue/setup/exec/sync phases. Recording costs no virtual time.

// Span is one paired begin/end interval reconstructed from ring events.
type Span struct {
	ID     uint64
	Parent uint64 // 0 = root
	Kind   Kind
	Who    string
	Page   uint64
	Arg    int64
	Start  sim.Time
	End    sim.Time
	// Complete reports that both endpoints were retained. An open span (no
	// end yet) has End == Start; an orphan end (begin overwritten by ring
	// wraparound) likewise, anchored at the end timestamp.
	Complete bool
}

// Duration returns End − Start (0 for incomplete spans).
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer is a machine's one stopwatch. Begin opens a span; End closes it,
// returns how long it lasted, and feeds that one duration everywhere it is
// wanted: the component and the histogram the feeds table names for the
// span's kind, and a begin/end event pair in the Ring. Each sink is optional,
// so attaching one changes what is recorded, never what is measured; a nil
// Tracer still measures (a Fabric built outside a Machine needs no guards).
type Tracer struct {
	Ring  *Ring             // span and instant events (nil = none)
	Times *metrics.TimeSet  // attribution (nil = none)
	Hists *metrics.Registry // latency histograms (nil = none)

	nextID uint64
	stacks map[string][]uint64 // open span ids per thread name, innermost last
}

// Open is a span between its Begin and its End.
type Open struct {
	id    uint64 // 0 = not in the ring (none was attached at Begin)
	start sim.Time
	depth int32 // open spans beneath it on its thread's stack
	arg   int32
	kind  Kind
}

// feed is one row of the kind table: what a closing span of the kind feeds
// besides the ring. A perClass row is indexed further by the span's Arg, a
// netmodel traffic class.
type feed struct {
	comp     metrics.Comp
	hist     metrics.Hist
	perClass bool
}

// feeds is the kind table. A kind without a row feeds only the ring (the
// pushdown phases core reports per call take their value from End's result).
var feeds = [numKinds]*feed{
	KindRPC:           {comp: metrics.CompWirePageFault, hist: metrics.HistNetPageFault, perClass: true},
	KindSSDRead:       {comp: metrics.CompSSDRead, hist: metrics.HistSSDRead},
	KindSSDWrite:      {comp: metrics.CompSSDWrite, hist: metrics.HistSSDWrite},
	KindRemoteFault:   {comp: metrics.NoComp, hist: metrics.HistFaultRemote},
	KindPushdown:      {comp: metrics.NoComp, hist: metrics.HistPushTotal},
	KindPushQueue:     {comp: metrics.CompPushQueue, hist: metrics.HistPushQueue},
	KindPushExec:      {comp: metrics.NoComp, hist: metrics.HistPushExec},
	KindPushRetryWait: {comp: metrics.CompPushRetry, hist: metrics.NoHist},
}

// Begin opens a span of kind k on t.
func (tr *Tracer) Begin(t *sim.Thread, k Kind, page uint64, arg int64) Open {
	if tr == nil || tr.Ring == nil {
		return Open{start: t.Now(), arg: int32(arg), kind: k}
	}
	tr.nextID++
	id := tr.nextID
	who := t.Name()
	if tr.stacks == nil {
		tr.stacks = make(map[string][]uint64)
	}
	st := tr.stacks[who]
	var parent uint64
	if len(st) > 0 {
		parent = st[len(st)-1]
	}
	tr.stacks[who] = append(st, id)
	tr.Ring.Add(Event{
		At: t.Now(), Kind: k, Phase: PhaseBegin,
		Span: id, Parent: parent, Page: page, Arg: arg, Who: who,
	})
	return Open{id: id, start: t.Now(), depth: int32(len(st)), arg: int32(arg), kind: k}
}

// End closes sp, feeds its duration and returns it. In the ring it pops sp
// (and any unclosed inner spans — a robustness guard, not an expected path)
// off t's stack, unless an outer span's End already did.
func (tr *Tracer) End(t *sim.Thread, sp Open) sim.Time {
	if tr == nil {
		return t.Now() - sp.start
	}
	d := t.Now() - sp.start
	if f := feeds[sp.kind]; f != nil {
		comp, hist := f.comp, f.hist
		if f.perClass {
			comp, hist = comp+metrics.Comp(sp.arg), hist+metrics.Hist(sp.arg)
		}
		tr.Times.Add(comp, d)
		if tr.Hists != nil {
			tr.Hists.Hist(hist).Observe(d)
		}
	}
	if sp.id != 0 {
		who := t.Name()
		if st := tr.stacks[who]; int(sp.depth) < len(st) && st[sp.depth] == sp.id {
			tr.stacks[who] = st[:sp.depth]
		}
		tr.Ring.Add(Event{At: t.Now(), Kind: sp.kind, Phase: PhaseEnd, Span: sp.id, Who: who})
	}
	return d
}

// Instant records a point event on t.
func (tr *Tracer) Instant(t *sim.Thread, k Kind, page uint64, arg int64) {
	if tr == nil || tr.Ring == nil {
		return
	}
	tr.Ring.Add(Event{At: t.Now(), Kind: k, Page: page, Arg: arg, Who: t.Name()})
}

// PairSpans reconstructs spans from a retained event window, oldest-first.
// Begin events open spans; end events close them by ID. Ring wraparound is
// tolerated: an end whose begin was overwritten yields a zero-duration span
// anchored at the end timestamp, and a begin whose end is not yet recorded
// (the span was still open) yields a zero-duration span anchored at the
// begin. Spans are returned in open order.
func PairSpans(events []Event) []Span {
	var spans []Span
	index := make(map[uint64]int) // span ID → index in spans
	for _, e := range events {
		switch e.Phase {
		case PhaseBegin:
			index[e.Span] = len(spans)
			spans = append(spans, Span{
				ID: e.Span, Parent: e.Parent, Kind: e.Kind, Who: e.Who,
				Page: e.Page, Arg: e.Arg, Start: e.At, End: e.At,
			})
		case PhaseEnd:
			if i, ok := index[e.Span]; ok {
				spans[i].End = e.At
				spans[i].Complete = true
				if spans[i].Kind == 0 && e.Kind != 0 {
					spans[i].Kind = e.Kind
				}
			} else {
				// Orphan end: the begin fell off the ring.
				spans = append(spans, Span{
					ID: e.Span, Kind: e.Kind, Who: e.Who,
					Start: e.At, End: e.At,
				})
			}
		}
	}
	return spans
}

package trace

import (
	"teleport/internal/sim"
)

// This file grows the flat event ring into a span layer. A Tracer allocates
// span IDs, tracks one open-span stack per simulated thread (the scheduler
// runs one thread at a time, so no locking), and records each span as a
// PhaseBegin/PhaseEnd event pair in the ring. Parentage is captured at begin
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

// Tracer records spans into a Ring. A nil Tracer is inert, like a nil Ring:
// Begin returns 0 and End(0) is a no-op, so instrumentation sites need no
// guards and tracing is disabled by default.
type Tracer struct {
	ring   *Ring
	nextID uint64
	stacks map[string][]frame // open spans per thread name, innermost last
}

// frame is one open span on a thread's stack.
type frame struct {
	id   uint64
	kind Kind
}

// NewTracer returns a tracer writing into r.
func NewTracer(r *Ring) *Tracer {
	return &Tracer{ring: r, stacks: make(map[string][]frame)}
}

// Begin opens a span on t's stack and returns its ID (0 on a nil tracer).
func (tr *Tracer) Begin(t *sim.Thread, k Kind, page uint64, arg int64) uint64 {
	if tr == nil {
		return 0
	}
	tr.nextID++
	id := tr.nextID
	who := t.Name()
	var parent uint64
	if st := tr.stacks[who]; len(st) > 0 {
		parent = st[len(st)-1].id
	}
	tr.stacks[who] = append(tr.stacks[who], frame{id: id, kind: k})
	tr.ring.Add(Event{
		At: t.Now(), Kind: k, Phase: PhaseBegin,
		Span: id, Parent: parent, Page: page, Arg: arg, Who: who,
	})
	return id
}

// End closes the span, popping it (and any unclosed inner spans — a
// robustness guard, not an expected path) off t's stack. End(t, 0) is a
// no-op, so a Begin on a nil tracer composes safely.
func (tr *Tracer) End(t *sim.Thread, id uint64) {
	if tr == nil || id == 0 {
		return
	}
	who := t.Name()
	kind := Kind(0)
	st := tr.stacks[who]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i].id == id {
			kind = st[i].kind
			tr.stacks[who] = st[:i]
			break
		}
	}
	tr.ring.Add(Event{At: t.Now(), Kind: kind, Phase: PhaseEnd, Span: id, Who: who})
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

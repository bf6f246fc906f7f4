package spanbalance

import (
	"sim"
	"trace"
)

// The canonical pattern: defer the End right after the Begin.
func deferEnd(tr *trace.Tracer, t *sim.Thread) {
	sp := tr.Begin(t, trace.KindAccess, 1, 0)
	defer tr.End(t, sp)
	t.Advance(sim.Microsecond)
}

// A deferred closure ending the span also covers every exit.
func deferClosureEnd(tr *trace.Tracer, t *sim.Thread, hit bool) {
	sp := tr.Begin(t, trace.KindAccess, 2, 0)
	defer func() {
		tr.End(t, sp)
	}()
	if hit {
		return
	}
	t.Advance(sim.Microsecond)
}

// Explicit End on every branch balances too.
func endEachPath(tr *trace.Tracer, t *sim.Thread, hit bool) {
	sp := tr.Begin(t, trace.KindAccess, 3, 0)
	if hit {
		tr.End(t, sp)
		return
	}
	t.Advance(sim.Microsecond)
	tr.End(t, sp)
}

// Panic paths are exempt: the recovery machinery owns cleanup there.
func panicPath(tr *trace.Tracer, t *sim.Thread, corrupt bool) {
	sp := tr.Begin(t, trace.KindAccess, 4, 0)
	if corrupt {
		panic("corrupt page")
	}
	tr.End(t, sp)
}

// The zero Open is the tracer's documented no-op: conditional Begin with an
// unconditional End balances because ending it records nothing.
func zeroGuard(tr *trace.Tracer, t *sim.Thread, traced bool) {
	var sp trace.Open
	if traced {
		sp = tr.Begin(t, trace.KindAccess, 5, 0)
	}
	t.Advance(sim.Microsecond)
	tr.End(t, sp)
}

// A span handed to another owner is out of scope for this check.
type carrier struct{ sp trace.Open }

func escapesToField(tr *trace.Tracer, t *sim.Thread, c *carrier) {
	sp := tr.Begin(t, trace.KindAccess, 6, 0)
	c.sp = sp
}

func escapesToReturn(tr *trace.Tracer, t *sim.Thread) trace.Open {
	sp := tr.Begin(t, trace.KindAccess, 7, 0)
	return sp
}

// Per-iteration balance: each loop round closes its span before the next
// Begin.
func loopBalanced(tr *trace.Tracer, t *sim.Thread, n int) {
	for i := 0; i < n; i++ {
		sp := tr.Begin(t, trace.KindAccess, uint64(i), 0)
		t.Advance(sim.Microsecond)
		tr.End(t, sp)
	}
}

// End returns the span's duration. Whether the caller drops it, keeps it,
// stores it or returns it, the End is the span's one close.
type phases struct{ queue, exec sim.Time }

func durationUsed(tr *trace.Tracer, t *sim.Thread, st *phases) sim.Time {
	qs := tr.Begin(t, trace.KindAccess, 8, 0)
	t.Advance(sim.Microsecond)
	st.queue = tr.End(t, qs)

	es := tr.Begin(t, trace.KindAccess, 9, 0)
	t.Advance(sim.Microsecond)
	d := tr.End(t, es)
	st.exec = d

	sp := tr.Begin(t, trace.KindAccess, 10, 0)
	t.Advance(sim.Microsecond)
	return tr.End(t, sp)
}

// The same on every branch, one of them discarding the result.
func durationUsedOnOnePath(tr *trace.Tracer, t *sim.Thread, st *phases, failed bool) {
	sp := tr.Begin(t, trace.KindAccess, 11, 0)
	if failed {
		tr.End(t, sp)
		return
	}
	st.exec = tr.End(t, sp)
}

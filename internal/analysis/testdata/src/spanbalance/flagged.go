package spanbalance

import (
	"sim"
	"trace"
)

func leakOnEarlyReturn(tr *trace.Tracer, t *sim.Thread, miss bool) {
	sp := tr.Begin(t, trace.KindAccess, 1, 0) // want `not ended on every exit path`
	if miss {
		return
	}
	tr.End(t, sp)
}

func leakOnSwitchPath(tr *trace.Tracer, t *sim.Thread, mode int) {
	sp := tr.Begin(t, trace.KindAccess, 2, 0) // want `not ended on every exit path`
	switch mode {
	case 0:
		tr.End(t, sp)
	case 1:
		tr.End(t, sp)
	}
	// mode >= 2 falls off the end with the span open.
}

func discarded(tr *trace.Tracer, t *sim.Thread) {
	tr.Begin(t, trace.KindAccess, 3, 0) // want `discarded`
}

func discardedBlank(tr *trace.Tracer, t *sim.Thread) {
	_ = tr.Begin(t, trace.KindAccess, 4, 0) // want `discarded`
}

func doubleEndAfterDefer(tr *trace.Tracer, t *sim.Thread, fast bool) {
	sp := tr.Begin(t, trace.KindAccess, 5, 0)
	defer tr.End(t, sp)
	if fast {
		tr.End(t, sp) // want `double End`
	}
}

func doubleEndTwoPaths(tr *trace.Tracer, t *sim.Thread, retry bool) {
	sp := tr.Begin(t, trace.KindAccess, 6, 0)
	tr.End(t, sp)
	if retry {
		tr.End(t, sp) // want `double End`
	}
}

func rebeginInLoop(tr *trace.Tracer, t *sim.Thread, n int) {
	var sp trace.Open
	for i := 0; i < n; i++ {
		sp = tr.Begin(t, trace.KindAccess, 7, 0) // want `re-begun`
		if i%2 == 0 {
			continue // leaks this iteration's span
		}
		tr.End(t, sp)
	}
	tr.End(t, sp) // want `double End`
}

// Using End's duration on one path does not close the span on the others.
func leakBesideUsedDuration(tr *trace.Tracer, t *sim.Thread, failed bool) sim.Time {
	sp := tr.Begin(t, trace.KindAccess, 8, 0) // want `not ended on every exit path`
	if failed {
		return 0
	}
	return tr.End(t, sp)
}

// Nor does reading the duration twice make a second End legal.
func doubleEndForDuration(tr *trace.Tracer, t *sim.Thread) sim.Time {
	sp := tr.Begin(t, trace.KindAccess, 9, 0)
	d := tr.End(t, sp)
	return d + tr.End(t, sp) // want `double End`
}

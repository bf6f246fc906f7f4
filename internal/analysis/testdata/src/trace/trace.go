// Package trace is a stand-in for the simulator's trace layer in
// maporder and spanbalance fixtures: Emit and Ring.Add record in call
// order, Len is a getter, and Tracer issues paired Begin/End spans.
package trace

import "sim"

var sink string

// Emit records one event.
func Emit(s string) { sink = s }

// Ring mimics a recording handle.
type Ring struct{ n int }

// Add records one event.
func (r *Ring) Add(s string) { sink, r.n = s, r.n+1 }

// Len returns the event count (a getter: order-insensitive).
func (r *Ring) Len() int { return r.n }

// Kind classifies a span.
type Kind int

// KindAccess is a page-access span.
const KindAccess Kind = 0

// Tracer mimics the simulator's span recorder: every Begin must be
// matched by an End on every exit path of the enclosing function.
type Tracer struct{ next uint64 }

// Open is a span between its Begin and its End.
type Open struct {
	id    uint64
	start sim.Time
}

// Begin opens a span.
func (tr *Tracer) Begin(t *sim.Thread, k Kind, page uint64, arg int64) Open {
	tr.next++
	return Open{id: tr.next, start: t.Now()}
}

// End closes the span and returns how long it lasted. Ending the zero Open
// records nothing.
func (tr *Tracer) End(t *sim.Thread, sp Open) sim.Time { return t.Now() - sp.start }

package core

import (
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// This file implements the runtime's health-tracking circuit breaker. The
// per-call retry loop of PushdownWithPolicy is memoryless: during a long
// outage every call independently burns its full retry budget before
// degrading. The breaker adds cross-call memory — after
// Policy.BreakerThreshold consecutive recoverable failures it opens and
// PushdownWithPolicy short-circuits straight to compute-side execution,
// sparing the retry storms; after Policy.BreakerCooldown of virtual time one
// probe call is allowed through (half-open), and its outcome decides between
// closing the breaker and re-opening it. Every transition starts a new
// generation, and only outcomes of attempts admitted under the present one
// move the breaker.

// breakerState is the classic three-state machine.
type breakerState uint8

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

// breakerAllow reports whether a pushdown attempt may proceed, and the
// breaker generation it was admitted under, which the attempt's outcome must
// carry back. Closed lets every attempt through; open refuses them until the
// cooldown has elapsed, then turns half-open and lets this caller through as
// the one probe; while half-open every other caller is refused until the
// probe's outcome closes or re-opens the breaker. A false return means the
// caller must short-circuit to local execution.
func (r *Runtime) breakerAllow(t *sim.Thread) (uint64, bool) {
	switch {
	case r.Policy.BreakerThreshold <= 0 || r.brState == brClosed:
		return r.brGen, true
	case r.brState == brHalfOpen || t.Now()-r.brOpenedAt < r.Policy.BreakerCooldown:
		return r.brGen, false
	}
	r.brState = brHalfOpen
	r.brGen++
	r.agg.BreakerHalfOpens++
	r.P.M.Obs.Instant(t, trace.KindBreakerHalfOpen, 0, 0)
	return r.brGen, true
}

// breakerFailure records one recoverable pushdown failure of an attempt
// admitted under generation gen: it re-opens a half-open breaker immediately
// (the probe failed) and opens a closed one once the consecutive-failure
// streak reaches the threshold. An attempt admitted
// before the last transition does not count: its outcome says nothing about
// the state the breaker has since moved to.
func (r *Runtime) breakerFailure(t *sim.Thread, gen uint64) {
	if r.Policy.BreakerThreshold <= 0 || gen != r.brGen {
		return
	}
	r.brStreak++
	if r.brState == brHalfOpen || (r.brState == brClosed && r.brStreak >= r.Policy.BreakerThreshold) {
		r.brState = brOpen
		r.brGen++
		r.brOpenedAt = t.Now()
		r.agg.BreakerOpens++
		r.P.M.Obs.Instant(t, trace.KindBreakerOpen, 0, int64(r.brStreak))
	}
}

// breakerSuccess records one pushdown the pool answered — it succeeded, or
// fn ran and failed in a way no retry undoes — resetting the streak and
// closing the breaker (a probe proved the pool healthy again). Like
// breakerFailure it ignores an attempt admitted under an older generation, so
// only the probe closes a breaker that has opened.
func (r *Runtime) breakerSuccess(t *sim.Thread, gen uint64) {
	if r.Policy.BreakerThreshold <= 0 || gen != r.brGen {
		return
	}
	r.brStreak = 0
	if r.brState != brClosed {
		r.brState = brClosed
		r.brGen++
		r.agg.BreakerCloses++
		r.P.M.Obs.Instant(t, trace.KindBreakerClose, 0, 0)
	}
}

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
// closing the breaker and re-opening it.

// breakerState is the classic three-state machine.
type breakerState uint8

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

// breakerAllow reports whether a pushdown attempt may proceed. Closed lets
// every attempt through; open refuses them until the cooldown has elapsed,
// then turns half-open and lets this caller through as the one probe; while
// half-open every other caller is refused until the probe's outcome closes
// or re-opens the breaker. A false return means the caller must
// short-circuit to local execution.
func (r *Runtime) breakerAllow(t *sim.Thread) bool {
	switch {
	case r.Policy.BreakerThreshold <= 0 || r.brState == brClosed:
		return true
	case r.brState == brHalfOpen || t.Now()-r.brOpenedAt < r.Policy.BreakerCooldown:
		return false
	}
	r.brState = brHalfOpen
	r.agg.BreakerHalfOpens++
	r.P.M.Obs.Instant(t, trace.KindBreakerHalfOpen, 0, 0)
	return true
}

// breakerFailure records one recoverable pushdown failure (or shed): it
// re-opens a half-open breaker immediately (the probe failed) and opens a
// closed one once the consecutive-failure streak reaches the threshold.
func (r *Runtime) breakerFailure(t *sim.Thread) {
	if r.Policy.BreakerThreshold <= 0 {
		return
	}
	r.brStreak++
	if r.brState == brHalfOpen || (r.brState == brClosed && r.brStreak >= r.Policy.BreakerThreshold) {
		r.brState = brOpen
		r.brOpenedAt = t.Now()
		r.agg.BreakerOpens++
		r.P.M.Obs.Instant(t, trace.KindBreakerOpen, 0, int64(r.brStreak))
	}
}

// breakerSuccess records one pushdown the pool answered — it succeeded, or
// fn ran and failed in a way no retry undoes — resetting the streak and
// closing the breaker (a probe proved the pool healthy again).
func (r *Runtime) breakerSuccess(t *sim.Thread) {
	if r.Policy.BreakerThreshold <= 0 {
		return
	}
	r.brStreak = 0
	if r.brState != brClosed {
		r.brState = brClosed
		r.agg.BreakerCloses++
		r.P.M.Obs.Instant(t, trace.KindBreakerClose, 0, 0)
	}
}

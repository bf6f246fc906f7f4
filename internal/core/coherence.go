package core

import (
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// This file implements the on-demand memory synchronisation of §4.1: the
// page-fault handlers of Figure 9, which maintain the invariant that for
// every page either (a) the compute pool holds the only writable copy,
// (b) the temporary context holds the only writable copy, or (c) all copies
// are read-only (the Single-Writer-Multiple-Reader invariant).

// memPager services the temporary user context's accesses — Figure 9's
// MemoryOnPageFault (lines 11–17) plus the compute-side handler it triggers
// (ComputeOnPageRequest, lines 18–25). It also carries the call's
// crash-consistency state: the undo journal of pre-images, the armed
// mid-execution crash point, and the deadline budget.
type memPager struct {
	rt *Runtime
	st *Stats

	journal undoJournal
	touches int      // page accesses served so far (the crash-point axis)
	crashAt int      // touch ordinal at which an armed mid-crash fires (0 = unarmed)
	dieAt   sim.Time // absolute deadline (0 = none)

	// What every page access would otherwise work out again, fixed when the
	// call's pager is built: armed, the call has a crash point or a deadline
	// for precheck to enforce; gated, its pool has a write quorum to lose;
	// relaxed, it runs in one of relaxedModes, without the protocol.
	armed, gated, relaxed bool
}

// pushAbort is the panic value that tears down a pushed function from
// inside the pager — an armed mid-execution context crash, a blown deadline
// or a lost write quorum. Pushdown's recover distinguishes it from user
// panics (which become RemoteError) and leaves through call.fail, which
// rolls the undo journal back.
type pushAbort struct {
	err  error    // ErrContextCrashed, ErrDeadlineExceeded or ErrQuorumLost
	wake sim.Time // for ErrQuorumLost: when enough scheduled heals restore quorum
}

// precheck runs at every page access of an armed temporary context: it is
// where an armed mid-execution crash fires (deterministically, at the seeded
// touch ordinal — but only once the call has dirtied at least one page, so
// the crash is genuinely mid-mutation) and where the deadline budget is
// enforced during execution.
func (mp *memPager) precheck(e *ddc.Env) {
	if mp.crashAt > 0 && mp.touches >= mp.crashAt && mp.journal.pages() > 0 {
		panic(pushAbort{err: ErrContextCrashed})
	}
	if mp.dieAt > 0 && e.T.Now() > mp.dieAt {
		panic(pushAbort{err: ErrDeadlineExceeded})
	}
}

// capture journals pg's pre-image ahead of a write when the call can roll
// back. Only an armed or gated call can: pushAbort is raised by precheck,
// which runs only when armed, and by the quorum gate, which runs only when
// gated. Any other call commits whatever it wrote, so its pre-images would
// be copied and never read.
func (mp *memPager) capture(pg mem.PageID) {
	if mp.armed || mp.gated {
		mp.journal.capture(mp.rt.P.Space, pg)
	}
}

// EnsurePage implements the memory-place access path.
func (mp *memPager) EnsurePage(e *ddc.Env, pg mem.PageID, write bool) {
	r := mp.rt
	p := r.P
	mp.touches++
	if mp.armed {
		mp.precheck(e)
	}
	if mp.gated {
		// A write quorum lost mid-execution (partition onset after admission)
		// aborts the call: Pushdown's recover rolls the undo journal back
		// before the Recoverable ErrQuorumLost is reported.
		if wake := p.M.GateQuorum(pg, e.T.Now()); wake > 0 {
			panic(pushAbort{err: ErrQuorumLost, wake: wake})
		}
	}

	if mp.relaxed {
		// Relaxed / strawman modes: no protocol, only pool residency (and
		// dirty tracking so eager mode knows what changed).
		p.EnsureInPool(e.T, pg, write)
		if write {
			mp.capture(pg)
			r.temp.entry(pg).dirty = true
		}
		return
	}

	ent := r.temp.entry(pg)
	if ent.present && (!write || ent.writable) {
		// Permission hit. Line 14–15 still applies: the page itself may
		// have been spilled to the storage pool.
		p.EnsureInPool(e.T, pg, write)
		if write {
			mp.capture(pg)
			ent.dirty = true
		}
		ent.lastMemTouch = e.T.Now()
		return
	}

	// Temporary-context page fault (Figure 9 lines 11–17).
	mark := e.T.Now()

	_, heldDirty, held := p.Cache.Lookup(pg)
	if held {
		// Line 17: send request to the compute pool. Lines 18–25
		// (ComputeOnPageRequest) run there; if the compute copy is dirty,
		// the data rides back on the reply.
		respBytes := ctrlMsgBytes
		if heldDirty {
			respBytes = pageMsgBytes
			p.Cache.ClearDirty(pg)
		}
		sp := p.M.Obs.Begin(e.T, trace.KindCoherence, uint64(pg), trace.Flag(write))
		p.M.Fabric.RoundTrip(e.T, ctrlMsgBytes, respBytes, netmodel.ClassCoherence)
		p.M.Obs.End(e.T, sp)
		r.agg.CoherenceMsgs += 2
		r.agg.CoherenceRounds++
		if write {
			// Line 22: Evict pte — unless the PSO relaxation keeps a
			// read-only copy in the other pool (§4.2).
			if r.pso {
				p.Cache.SetWritable(pg, false)
			} else {
				p.Cache.Remove(pg)
			}
		} else {
			// Line 24: pte.writable ← False.
			p.Cache.SetWritable(pg, false)
		}
		p.Epoch++
		ent.present = true
		ent.writable = write
	} else {
		// True page fault (lines 14–15): to the storage pool if spilled;
		// afterwards the temporary context is the sole holder.
		p.EnsureInPool(e.T, pg, write)
		ent.present = true
		ent.writable = true
	}
	if write {
		mp.capture(pg)
		ent.writable = true
		ent.dirty = true
	}
	ent.lastMemTouch = e.T.Now()
	mp.st.OnlineSync += e.T.Now() - mark
}

// Repeat accounts n repeats of a permission hit (ddc.Pager): the touch count,
// the page's dirty bit and its last-touch stamp, and the memory pool's own hit
// (ddc.Process.PoolHit) — the page at the head of a bounded pool's LRU order,
// dirty there after a write — which n calls leave as one does. It declines
// whenever a call does more than that or what it does depends on when it runs
// or how many ran before it — an armed crash point, a deadline, a write-quorum
// gate, the strawman modes, a missing permission, a page the bounded pool
// would fault in from storage — and the loop then runs the rows one access at
// a time. A call it serves is neither armed nor gated, so it keeps no
// pre-images and a write needs only the permission.
func (mp *memPager) Repeat(e *ddc.Env, pg mem.PageID, write bool, n int) bool {
	p := mp.rt.P
	if mp.armed || mp.gated || mp.relaxed {
		return false
	}
	present, writable := mp.rt.temp.peek(pg)
	if !present || write && !writable || !p.PoolHit(pg, write, n > 0) {
		return false
	}
	if n > 0 {
		mp.touches += n
		ent := mp.rt.temp.entry(pg)
		ent.dirty = ent.dirty || write
		ent.lastMemTouch = e.T.Now()
	}
	return true
}

// pushHooks services compute-pool faults while a pushdown is active —
// Figure 9's ComputeOnPageFault / MemoryOnPageRequest pair (lines 1–10).
// It is installed on the process for the lifetime of the shared pushdown
// state.
type pushHooks struct {
	rt *Runtime
}

var _ ddc.PushHooks = (*pushHooks)(nil)

// ComputeFaulted runs when the compute pool demand-fetched page pg during a
// pushdown: the memory controller serves the page and simultaneously
// applies Invalidate(t_mm[pg], write) to the temporary context (lines
// 8–10) — no additional message is needed because the fault reply carries
// the result. Under PSO a compute write only downgrades the copy (§4.2).
func (h *pushHooks) ComputeFaulted(t *sim.Thread, pg mem.PageID, write bool) {
	r := h.rt
	r.agg.ComputeFaults++
	ent := r.temp.entry(pg)
	if write {
		h.tiebreak(t, ent)
	}
	ent.invalidate(write && !r.pso)
}

// ComputeUpgrade runs when the compute pool holds pg read-only and wants to
// write — the (R,R) → (W,∅) transition that needs an explicit coherence
// round trip to invalidate the temporary context's copy.
func (h *pushHooks) ComputeUpgrade(t *sim.Thread, pg mem.PageID) {
	r := h.rt
	r.agg.Upgrades++
	ent := r.temp.entry(pg)
	h.tiebreak(t, ent)
	sp := r.P.M.Obs.Begin(t, trace.KindCoherence, uint64(pg), 1)
	r.P.M.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassCoherence)
	r.P.M.Obs.End(t, sp)
	r.agg.CoherenceMsgs += 2
	r.agg.CoherenceRounds++
	ent.invalidate(!r.pso)
}

// tiebreak models §4.1's concurrent-fault rule: when the compute pool's
// write request races with the temporary context's own activity on the
// page, the memory pool wins — the compute pool satisfies the memory
// pool's request, waits t, and reissues its own (one extra control round
// trip).
func (h *pushHooks) tiebreak(t *sim.Thread, ent *tempPTE) {
	rt := h.rt
	if ent.present && ent.writable && ent.lastMemTouch > 0 &&
		t.Now()-ent.lastMemTouch < contentionWindow {
		rt.agg.Contentions++
		rt.P.M.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassCoherence)
		rt.agg.CoherenceMsgs += 2
		rt.P.M.Charge(t, metrics.CompPushProto, float64(tiebreakWait))
	}
}

// SyncMem implements the manual, preemptive flush of §4.2: dirty pages in
// the given ranges are written back to the memory pool in one batched
// transfer. Applications use it before or during pushdown when they know
// which pages fn will touch, or to repair false sharing under
// FlagNoCoherence (Figure 7).
func (r *Runtime) SyncMem(t *sim.Thread, ranges []Range) int {
	p := r.P
	if !p.M.Cfg.Disaggregated {
		return 0
	}
	var dirty []mem.PageID
	for _, rg := range ranges {
		rg.Pages(func(pg mem.PageID) {
			if _, d, ok := p.Cache.Lookup(pg); ok && d {
				dirty = append(dirty, pg)
			}
		})
	}
	if len(dirty) == 0 {
		return 0
	}
	p.M.Obs.Instant(t, trace.KindSync, 0, int64(len(dirty)))
	p.M.Fabric.Send(t, len(dirty)*pageMsgBytes, netmodel.ClassSync)
	for _, pg := range dirty {
		p.Cache.ClearDirty(pg)
		if r.refs > 0 {
			// The memory pool now has the fresh data; the compute copy
			// stays read-only so the pushed function can read it freely.
			p.Cache.SetWritable(pg, false)
			r.temp.invalidate(pg, false)
		}
	}
	p.Epoch++
	return len(dirty)
}

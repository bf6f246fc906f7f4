package core

import (
	"errors"
	"slices"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Wire sizes for the coherence protocol (the pushdown request and response
// are sized by their WireSize in internal/netmodel).
const (
	ctrlMsgBytes = 48 // coherence control message
	pageMsgBytes = mem.PageSize + 32

	// tiebreakWait is the paper's t: how long the compute pool waits after
	// satisfying the memory pool's concurrent write request before reissuing
	// its own (§4.1 "Concurrent page faults"). contentionWindow bounds how
	// recently the temporary context must have touched a page for a
	// compute-pool write fault on it to count as a concurrent fault.
	tiebreakWait     = 15 * sim.Microsecond
	contentionWindow = 10 * sim.Microsecond

	// ctxSwitchPenalty scales the execution dilation applied when more user
	// contexts run than the memory pool has physical cores.
	ctxSwitchPenalty = 0.05

	// midCrashTouchSpan is the page-access-ordinal range the seeded
	// mid-crash fraction maps onto: an armed context dies at its
	// (1 + frac·span)-th page access, once it has dirtied at least one
	// page. Page accesses — not wall progress — are the crash axis because
	// they are the only points where the memory kernel runs on the call's
	// behalf.
	midCrashTouchSpan = 256
)

// Func is a pushed-down function. It runs in the memory pool inside a
// temporary user context that shares the caller's address space: any address
// the caller could dereference, fn can too (§3.1). env belongs to the
// temporary context and must not be used after the function returns.
type Func func(env *ddc.Env)

// Runtime is the TELEPORT instance pair of one process: the compute-kernel
// side (syscall entry, resident-list construction, heartbeats) and the
// memory-kernel side (RPC server, workqueue, temporary user contexts,
// coherence).
type Runtime struct {
	// P is the process whose address space pushdowns execute in.
	P *ddc.Process

	// Contexts is the number of parallel user contexts the memory pool
	// runs (§3.2 "Handling concurrent pushdown requests"; swept in
	// Figure 17). With one context, concurrent requests serialise FIFO.
	Contexts int

	// Policy is the recovery policy every call reads at its entry.
	Policy Policy

	running int
	lastID  int64 // id of the most recently started call
	queue   []*sim.Thread
	downObs bool // last heartbeat observation, for crash/recover trace edges
	agg     RuntimeStats

	// The coherence state shared by all pushdowns of the process in flight
	// at once (they share the borrowed page table, §3.2): the temporary
	// context's page table, how many calls hold it, and whether the first of
	// them asked for the PSO relaxation. The last call out resets the table.
	temp tempTable
	refs int
	pso  bool

	// retryAt is when the scheduled outage behind the last failed call ends
	// — the controller's restart, or the heal that makes its working set
	// reachable again — for the recovery policy to wait on instead of blind
	// backoff. Zero when no schedule says (see call.fail).
	retryAt sim.Time

	brState    breakerState
	brGen      uint64   // bumped by every breaker transition (breaker.go)
	brStreak   int      // consecutive recoverable failures while closed
	brOpenedAt sim.Time // when the breaker last opened

	// Host-side storage recycled across calls (allocation control only; no
	// simulated effect). hooks are the compute-side fault handlers installed
	// while calls are in flight; scratch pools the working storage of calls
	// not in flight.
	hooks   pushHooks
	scratch []*callScratch
}

// callScratch is the host-side working storage one call needs from request
// construction to completion. Calls overlap — a caller parks in the fabric
// and the workqueue while other threads start their own — so each takes a
// scratch from the Runtime's pool for its duration, and steady state
// allocates none however many contexts run.
type callScratch struct {
	// runs is the resident list snapshotted at request construction; context
	// setup applies the same snapshot after the request and queue delays.
	runs  []netmodel.PageRun
	pager memPager
	env   *ddc.Env // the temporary context's environment, recycled per call
}

func (r *Runtime) getScratch() *callScratch {
	n := len(r.scratch)
	if n == 0 {
		return &callScratch{}
	}
	scr := r.scratch[n-1]
	r.scratch = r.scratch[:n-1]
	return scr
}

func (r *Runtime) putScratch(scr *callScratch) { r.scratch = append(r.scratch, scr) }

// NewRuntime returns a TELEPORT runtime for p with the given number of
// memory-pool user contexts.
func NewRuntime(p *ddc.Process, contexts int) *Runtime {
	if contexts < 1 {
		contexts = 1
	}
	r := &Runtime{P: p, Contexts: contexts, Policy: DefaultPolicy()}
	r.temp.reset()
	r.hooks.rt = r
	return r
}

// Stats returns the aggregate runtime statistics.
func (r *Runtime) Stats() RuntimeStats { return r.agg }

// ReadStats adds the runtime's counters and its running-context gauge to s
// under their declared names.
func (r *Runtime) ReadStats(s *metrics.Snapshot) {
	ledger.Read(s.Counters, &r.agg)
	s.Gauges["push.running"] = int64(r.running)
}

// observeHeartbeat is one compute-side heartbeat observation at t's current
// time (§3.2): whether the machine's fault plan has the memory pool down.
// Transitions are recorded as pool-crash / pool-recover trace events so chaos
// runs are debuggable from the ring.
func (r *Runtime) observeHeartbeat(t *sim.Thread) bool {
	_, down := r.P.M.Fault.DownAt(fault.Pool(), t.Now())
	if down != r.downObs {
		kind := trace.KindPoolRecover
		if down {
			kind = trace.KindPoolCrash
		}
		r.P.M.Obs.Instant(t, kind, 0, 0)
		r.downObs = down
	}
	return down
}

// Policy is the compute side's one recovery policy (§3.2): how long each
// attempt may take, how often a recoverably failed call is re-attempted
// before fn runs in the compute pool, and when the circuit breaker stops
// attempting at all. Every knob is off at zero: the zero Policy is §3.2's cancel-and-run-locally — a
// request cancelled while queued (try_cancel at its Deadline), like any
// other Recoverable failure, runs fn in the compute pool at once ("the
// application is free to execute fn directly in the compute pool").
type Policy struct {
	// Deadline is each attempt's virtual-time budget, measured from its
	// entry and spanning queue wait, context setup and execution: the one
	// time limit on a call. An attempt that cannot finish in budget aborts
	// with ErrDeadlineExceeded instead of stalling the caller — while queued
	// this is §3.2's try_cancel, and a runaway function is stopped at its
	// next page access after first rolling the undo journal back — so the
	// abort is Recoverable. Zero means no budget.
	Deadline sim.Time

	// MaxRetries bounds PushdownWithPolicy's re-attempts after a Recoverable
	// failure (a crashed context's one immediate re-run does not consume
	// one). Backoff is the first retry delay; it doubles per retry, capped
	// at 64×. Zero retries immediately.
	MaxRetries int
	Backoff    sim.Time

	// BreakerThreshold is how many consecutive recoverable failures open
	// the circuit breaker (breaker.go); zero disables it. BreakerCooldown
	// is how long it stays open before a half-open probe.
	BreakerThreshold int
	BreakerCooldown  sim.Time
}

// DefaultPolicy is the policy NewRuntime installs: no budget, three retries
// from 50 µs, and a breaker lenient enough that one call's own attempts (the
// first plus MaxRetries) never open it, strict enough that a persistent
// outage trips it after two degraded calls.
func DefaultPolicy() Policy {
	return Policy{MaxRetries: 3, Backoff: 50 * sim.Microsecond, BreakerThreshold: 5, BreakerCooldown: 500 * sim.Microsecond}
}

// PushdownWithPolicy runs fn under the runtime's Policy: its retries, its
// backoff and its circuit breaker. It returns the last pushdown attempt's
// breakdown, whether fn ultimately ran in the memory pool, and the error for
// non-recoverable failures (RemoteError, ErrNotDisaggregated —
// recoverable ones are absorbed by the fallback). Every recoverable error is
// raised either before the pushed function commits or after its partial
// writes were rolled back from the undo journal, so fn's effects are applied
// exactly once no matter how many attempts were needed.
//
// While the breaker is open, calls short-circuit straight to compute-side
// execution without attempting a pushdown; after the cooldown one probe
// attempt is allowed through, other calls keep short-circuiting while it
// runs, and its outcome closes (success or a non-recoverable error) or
// re-opens (a recoverable failure) the breaker. The outcome of an attempt
// admitted before the breaker's last transition leaves the breaker as it is.
func (r *Runtime) PushdownWithPolicy(t *sim.Thread, fn Func, opts Options) (Stats, bool, error) {
	// End-to-end latency of the whole policy call — every attempt, every
	// backoff wait, and any compute-side fallback — the operation class
	// whose tail the SLO analysis (internal/obs percentiles) reads.
	e2eStart := t.Now()
	defer func() {
		r.P.M.Obs.Hists.Hist(metrics.HistPushE2E).Observe(t.Now() - e2eStart)
	}()
	pol := &r.Policy
	backoff := pol.Backoff
	ctxRerun := false
	retries := 0
	for {
		gen, allowed := r.breakerAllow(t)
		if !allowed {
			r.agg.BreakerShortCircuits++
			r.runLocalFallback(t, fn)
			return Stats{}, false, nil
		}
		st, err := r.Pushdown(t, fn, opts)
		if !Recoverable(err) {
			// Success, or an error no retry undoes (fn ran and panicked):
			// the pool answered, so a probe ending here closes the breaker
			// rather than leave it half-open.
			r.breakerSuccess(t, gen)
			return st, true, err
		}
		r.breakerFailure(t, gen)
		// §3.2: the controller reaps a crashed context and the compute side
		// re-issues the request once, without consuming a retry.
		crashed := errors.Is(err, ErrContextCrashed)
		if (crashed && ctxRerun) || (!crashed && retries >= pol.MaxRetries) {
			// Out of attempts: degrade to compute-side execution.
			r.runLocalFallback(t, fn)
			return st, false, nil
		}
		r.agg.Retries++
		if crashed {
			ctxRerun = true
			continue
		}
		retries++
		wsp := r.P.M.Obs.Begin(t, trace.KindPushRetryWait, 0, int64(retries))
		if r.retryAt > t.Now() {
			// Scheduled outage: wait for the controller restart, or the
			// earliest heal that unblocks the call's working set.
			t.AdvanceTo(r.retryAt)
		} else if backoff > 0 {
			t.Advance(backoff)
			if backoff < 64*pol.Backoff {
				backoff *= 2
			}
		}
		r.P.M.Obs.End(t, wsp)
	}
}

// runLocalFallback executes fn in the compute pool and records the
// degradation.
func (r *Runtime) runLocalFallback(t *sim.Thread, fn Func) {
	r.agg.LocalFallbacks++
	sp := r.P.M.Obs.Begin(t, trace.KindFallbackLocal, 0, 0)
	fn(r.P.NewEnv(t))
	r.P.M.Obs.End(t, sp)
}

// call is one Pushdown attempt: what a checkpoint needs to know and what
// every exit must give back.
type call struct {
	r          *Runtime
	t          *sim.Thread
	id         int64
	deadlineAt sim.Time  // Policy.Deadline as an absolute instant; 0 = no budget
	wake       sim.Time  // the scheduled heal a gate found behind the failure, if any
	ctx        bool      // holds a memory-pool user context
	joined     bool      // holds a reference on the coherence state, from context setup
	pager      *memPager // set once the pushed function started executing
}

// checkpoint is what the compute side can observe wherever the call has just
// spent virtual time: the pool's heartbeat, then — once the temporary context
// exists — whether it is still alive (the fault plan's pre-commit crash,
// drawn once per call), then the call's own deadline budget. Nothing has
// committed at a checkpoint, so every error it returns is Recoverable.
func (c *call) checkpoint() error {
	switch {
	case c.r.observeHeartbeat(c.t):
		return ErrMemoryPoolDown
	case c.joined && c.r.P.M.Fault.CtxCrash():
		return ErrContextCrashed
	case c.deadlineAt > 0 && c.t.Now() > c.deadlineAt:
		return ErrDeadlineExceeded
	}
	return nil
}

// failures is the one table that accounts a failed call: the RuntimeStats
// counter and the trace event (Arg from the row, or the call id) of each
// sentinel. The first row matching under errors.Is applies; an exec row only
// once the pushed function had started executing. Its sentinels are the
// recoverable ones (Recoverable).
var failures = [...]struct {
	err     error
	exec    bool
	count   func(*RuntimeStats) *int64
	event   trace.Kind // 0 = none (no failure is a remote-fault event)
	arg     int64
	callArg bool
}{
	{err: ErrMemoryPoolDown, count: func(s *RuntimeStats) *int64 { return &s.PoolDownObserved }},
	{err: ErrShardDown, count: func(s *RuntimeStats) *int64 { return &s.ShardDownObserved }, event: trace.KindShardDown},
	{err: ErrQuorumLost, exec: true, count: func(s *RuntimeStats) *int64 { return &s.QuorumAborts }},
	{err: ErrQuorumLost, count: func(s *RuntimeStats) *int64 { return &s.QuorumLostObserved }, event: trace.KindShardDown, arg: 1},
	{err: ErrDeadlineExceeded, count: func(s *RuntimeStats) *int64 { return &s.DeadlineAborts }},
	{err: ErrContextCrashed, count: func(s *RuntimeStats) *int64 { return &s.CtxCrashes }, event: trace.KindFaultInjected, callArg: true},
}

// fail is the one failure exit. It accounts err (failures); lets the pool
// clean up — a crashed context is reaped, and whatever fn had dirtied is
// rolled back from the undo journal before the failure notification is sent,
// so by the time the compute side learns anything the pool's memory is
// pristine and the error Recoverable even though fn partially ran — unwinds
// what the call holds; and records when a retry can succeed.
func (c *call) fail(err error) error {
	r, t, m := c.r, c.t, c.r.P.M
	exec := c.pager != nil
	for i := range failures {
		f := &failures[i]
		if !errors.Is(err, f.err) || (f.exec && !exec) {
			continue
		}
		*f.count(&r.agg)++
		if f.event != 0 {
			arg := f.arg
			if f.callArg {
				arg = c.id
			}
			m.Obs.Instant(t, f.event, 0, arg)
		}
		break
	}
	crashed := errors.Is(err, ErrContextCrashed)
	if crashed {
		// Reap cost: one context switch in the pool.
		m.Charge(t, metrics.CompPushProto, m.Cfg.HW.CtxSwitchNs)
	}
	if exec {
		r.rollbackJournal(t, c.pager)
	}
	if crashed || exec {
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassPushdown)
	}
	c.unwind()
	// A controller down right now gates any retry; else the gate's heal does.
	r.retryAt = c.wake
	if recoverAt, down := m.Fault.DownAt(fault.Pool(), t.Now()); down {
		r.retryAt = recoverAt
	}
	return err
}

// unwind gives back what the call holds: its reference on the shared
// coherence state, then its user context.
func (c *call) unwind() {
	if c.joined {
		c.r.exitPush()
	}
	if c.ctx {
		c.r.release(c.t)
	}
}

// Pushdown ships fn to the memory pool and blocks the calling thread until
// it completes (§3.2, Figure 5). Other simulated threads of the process
// keep running in the compute pool; the coherence protocol keeps both sides
// consistent. It returns the per-call breakdown and an error for a blown
// deadline, a remote panic, or pool failure.
//
// Failure handling: the call passes a checkpoint at entry and again wherever
// it has spent virtual time before execution commits (request sent, context
// acquired, context set up); inside execution the pager enforces the budget
// and the write quorum at every page access. Every failure leaves through
// call.fail with the partial Stats breakdown — fn has not run, or was rolled
// back, so the caller (or PushdownWithPolicy) may retry or run it locally. A
// crash after fn commits is indistinguishable from success here: the results
// already live in the pool's memory, which is also the process's only memory
// — the paper's kernel panics in that case.
func (r *Runtime) Pushdown(t *sim.Thread, fn Func, opts Options) (Stats, error) {
	var st Stats
	c := call{r: r, t: t}
	if err := c.checkpoint(); err != nil {
		return st, c.fail(err)
	}
	if !r.P.M.Cfg.Disaggregated {
		return st, c.fail(ErrNotDisaggregated)
	}
	r.lastID++
	c.id = r.lastID
	p := r.P
	tr := &p.M.Obs
	// The deadline budget is per attempt, measured from this entry; it is
	// enforced at every checkpoint below and inside execution by the pager.
	if d := r.Policy.Deadline; d > 0 {
		c.deadlineAt = t.Now() + d
	}
	sp := tr.Begin(t, trace.KindPushdown, 0, c.id)
	defer func() {
		// The attempt is accounted when it is over, its phases with it.
		tr.End(t, sp)
		r.agg.Calls++
		r.agg.Phases.addPhases(&st)
	}()

	scr := r.getScratch()
	defer r.putScratch(scr)

	// ❶–❷ Pre-pushdown synchronisation and request construction.
	ss := tr.Begin(t, trace.KindPushSync, 0, 0)
	eagerPages := r.preSync(t, opts, scr)
	st.PreSync = tr.End(t, ss)
	runs := scr.runs
	for _, run := range runs {
		st.ResidentPages += int(run.Count)
	}

	// On a sharded pool the call only proceeds when every resident page it
	// ships can be served — its primary shard up, or a replica live — and,
	// under a write quorum, its writes could commit.
	if wake, setDown := p.M.GateResident(t.Now(), runs); wake > 0 {
		c.wake = wake
		if setDown {
			return st, c.fail(ErrShardDown)
		}
		return st, c.fail(ErrQuorumLost)
	}

	if err := netmodel.CheckRuns(runs); err != nil {
		return st, c.fail(err)
	}
	st.RLERuns = len(runs)
	// The request is sized as its wire form: fn/arg pointers (the arg
	// pointer's transitive closure stays in the shared address space), flags,
	// and the compressed page list (RLE or dense bitmap, whichever is
	// smaller), which §6's compression keeps within a single RDMA buffer.
	req := netmodel.PushdownRequest{
		Fn:       0x400000, // a code address in the shared space
		Arg:      0x7FFF0000,
		Flags:    uint32(opts.Flags),
		Resident: runs,
	}
	n, err := req.WireSize()
	if err != nil {
		return st, c.fail(err)
	}
	st.RequestBytes = n
	st.Request = p.M.Fabric.Send(t, st.RequestBytes, netmodel.ClassPushdown)

	// The request transfer (and any fabric retries) took virtual time; a
	// pool crash in that window means the request was never acknowledged.
	if err := c.checkpoint(); err != nil {
		return st, c.fail(err)
	}

	// ❸ Workqueue: wait for a free user context (an unbounded FIFO; the
	// deadline's try_cancel is the only way out while queued).
	qs := tr.Begin(t, trace.KindPushQueue, 0, c.id)
	err = r.acquire(t, c.deadlineAt)
	st.Queue = tr.End(t, qs)
	if err != nil {
		return st, c.fail(err)
	}
	c.ctx = true

	// A crash while the request sat in the workqueue took the context we
	// were just granted with it; the wait may also have spent the budget.
	if err := c.checkpoint(); err != nil {
		return st, c.fail(err)
	}

	// ❹ Temporary user context setup (Figure 8).
	cs := tr.Begin(t, trace.KindPushSetup, 0, c.id)
	r.enterPush(t, runs, opts)
	c.joined = true
	st.CtxSetup = tr.End(t, cs)

	// A crash during context setup, or an injected crash of the temporary
	// context itself, surfaces before fn commits: the compute side detects
	// it by heartbeat timeout and the controller reaps the dead context.
	// Setup may also have spent the budget (nothing is dirty yet).
	if err := c.checkpoint(); err != nil {
		return st, c.fail(err)
	}

	// Function execution with online coherence (Figure 9). The pager keeps
	// the call's undo journal and enforces the armed mid-execution crash
	// point, the deadline and the write quorum at every page access.
	es := tr.Begin(t, trace.KindPushExec, 0, c.id)
	pager := &scr.pager
	// The journal was emptied by the scratch's last call and keeps its storage.
	*pager = memPager{rt: r, st: &st, relaxed: opts.Flags&relaxedModes != 0, dieAt: c.deadlineAt, journal: pager.journal}
	if frac, mid := p.M.Fault.CtxCrashMid(); mid {
		// Map the seeded fraction onto a page-access ordinal: the context
		// dies at its crashAt-th access — once it has dirtied at least one
		// page — which is deterministic for a given seed and workload.
		pager.crashAt = 1 + int(frac*float64(midCrashTouchSpan))
	}
	pager.armed = pager.crashAt > 0 || pager.dieAt > 0
	pager.gated = p.M.QuorumGated()
	c.pager = pager
	scr.env = p.RecycleMemoryEnv(scr.env, t, pager)
	env := scr.env
	var remoteErr error
	var abort *pushAbort
	func() {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if pa, ok := v.(pushAbort); ok {
				abort = &pa
				return
			}
			remoteErr = &RemoteError{Value: v}
		}()
		fn(env)
	}()
	st.Exec = tr.End(t, es)
	if abort != nil {
		c.wake = abort.wake
		return st, c.fail(abort.err)
	}

	// ❺–❼ Completion response: status plus any tunnelled exception (§3.2's
	// C++-exception rethrow carries the exception structure back).
	var resp netmodel.PushdownResponse
	if remoteErr != nil {
		resp.Exception = []byte(remoteErr.Error())
	}
	st.Response = p.M.Fabric.Send(t, resp.WireSize(), netmodel.ClassPushdown)

	// ❽ Post-pushdown synchronisation.
	posts := tr.Begin(t, trace.KindPushSync, 0, 1)
	r.postSync(t, opts, eagerPages)
	st.PostSync = tr.End(t, posts)

	c.unwind()
	pager.journal.discard(p.Space)
	return st, remoteErr
}

// rollbackJournal restores every pre-image the call's undo journal holds,
// clears the rolled-back pages' dirty bits in the temporary page table (so
// a later dirty-bit merge cannot write back state that was never
// committed), and charges the controller's restore walk to virtual time.
func (r *Runtime) rollbackJournal(t *sim.Thread, pager *memPager) {
	n := pager.journal.pages()
	if n == 0 {
		return
	}
	p := r.P
	cfg := &p.M.Cfg.HW
	// The controller walks the journal: a PTE fixup plus a full-page DRAM
	// copy per captured page.
	lines := float64(mem.PageSize / cfg.DRAMLineBytes)
	p.M.Charge(t, metrics.CompPushProto, hw.OpNs(cfg.MemoryClockGHz, float64(n)*cfg.PTEVisitOps)+float64(n)*lines*cfg.DRAMSeqLineNs)
	pager.journal.rollback(p.Space, func(pg mem.PageID) {
		r.temp.entry(pg).dirty = false
	})
	p.Epoch++ // rolled-back pages invalidate any env fast-path mapping
	r.agg.Rollbacks++
	r.agg.RolledBackPages += int64(n)
	p.M.Obs.Instant(t, trace.KindPushRollback, 0, int64(n))
}

// preSync performs the mode-dependent pre-pushdown synchronisation. It
// leaves the resident-page list to ship in scr.runs (empty outside the
// coherent modes) and returns, for the eager strawman, the page set to
// re-fetch afterwards.
func (r *Runtime) preSync(t *sim.Thread, opts Options, scr *callScratch) []mem.PageID {
	p := r.P
	cfg := &p.M.Cfg.HW
	scr.runs = scr.runs[:0]
	switch {
	case opts.Flags&FlagMigrateProcess != 0:
		// Naive whole-process migration (§4): synchronously transfer every
		// resident page — the naive path does not track dirtiness finer
		// than "the process ran here" — and clear the compute node's
		// memory, page by page through the eviction path.
		for n := p.Cache.Len(); n > 0; n-- {
			r.flushPage(t)
		}
		p.Cache.Clear()
		p.Epoch++
		return nil

	case opts.Flags&FlagEvictRanges != 0:
		// Per-thread variant (Figure 6): flush and evict only the pushed
		// computation's pages, page by page through the same eviction path.
		for _, rg := range opts.EvictRanges {
			rg.Pages(func(pg mem.PageID) {
				if p.Cache.Contains(pg) {
					r.flushPage(t)
					p.Cache.Remove(pg)
				}
			})
		}
		p.Epoch++
		return nil

	case opts.Flags&FlagEagerSync != 0:
		// Strawman (Figure 20): synchronise every resident page up front,
		// synchronously and individually.
		var pages []mem.PageID
		p.Cache.Range(func(pg mem.PageID, _, _ bool) bool {
			pages = append(pages, pg)
			return true
		})
		for _, pg := range pages {
			p.M.Fabric.RoundTrip(t, ctrlMsgBytes, 0, netmodel.ClassSync)
			p.M.Fabric.Send(t, pageMsgBytes, netmodel.ClassSync)
			p.Cache.Remove(pg)
		}
		p.Epoch++
		return pages

	case opts.Flags&FlagNoCoherence != 0:
		// Weak ordering: nothing is transmitted; the user syncs manually.
		return nil

	default:
		// On-demand coherence: build the resident list (with permissions)
		// for the request message; no data moves.
		scr.runs = p.Cache.AppendRuns(scr.runs)
		p.M.Charge(t, metrics.CompPushProto, hw.OpNs(cfg.ComputeClockGHz, float64(p.Cache.Len())*cfg.PageListEntryOps))
		return nil
	}
}

// flushPage charges one synchronous page eviction over the fabric: a
// control round trip, the page transfer, and the fault-handling software
// path on both ends.
func (r *Runtime) flushPage(t *sim.Thread) {
	cfg := &r.P.M.Cfg.HW
	r.P.M.Obs.Instant(t, trace.KindSync, 0, 0)
	r.P.M.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassSync)
	r.P.M.Fabric.Send(t, pageMsgBytes, netmodel.ClassSync)
	r.P.M.Charge(t, metrics.CompPushProto, 2*cfg.FaultHandleNs)
}

// enterPush creates or joins the shared pushdown coherence state and
// performs Figure 8's MemorySetup, charging the table-clone cost.
func (r *Runtime) enterPush(t *sim.Thread, runs []netmodel.PageRun, opts Options) {
	p := r.P
	cfg := &p.M.Cfg.HW
	// Cloning the caller's full page table (Figure 8 line 7) visits every
	// PTE of the process.
	p.M.Charge(t, metrics.CompPushProto, hw.OpNs(cfg.MemoryClockGHz, float64(p.Space.Pages())*cfg.PTEVisitOps))

	if r.refs == 0 {
		r.pso = opts.Flags&FlagPSO != 0
	}
	r.refs++

	if opts.Flags&relaxedModes == 0 {
		// Figure 8 lines 8–13: exclude compute-writable pages, downgrade
		// compute-read-only pages.
		r.temp.invalidateRuns(runs)
		if r.refs == 1 {
			p.SetPushHooks(&r.hooks)
		}
		p.Epoch++
	}
}

// exitPush drops a reference to the shared state, recycling the temporary
// context when the last concurrent pushdown finishes (§3.2 ❺).
func (r *Runtime) exitPush() {
	r.refs--
	if r.refs == 0 {
		r.P.SetPushHooks(nil)
		r.temp.reset()
	}
}

// postSync performs the mode-dependent post-pushdown synchronisation.
func (r *Runtime) postSync(t *sim.Thread, opts Options, eagerPages []mem.PageID) {
	p := r.P
	cfg := &p.M.Cfg.HW
	switch {
	case opts.Flags&FlagEagerSync != 0:
		// Re-fetch the previously resident set page by page so the compute
		// cache is warm again — the strawman's symmetric cost.
		for _, pg := range eagerPages {
			p.M.Fabric.RoundTrip(t, ctrlMsgBytes, pageMsgBytes, netmodel.ClassSync)
			if v, ok := p.Cache.Insert(pg, true, false); ok {
				// Compute threads cached pages of their own while the call
				// was in flight, so the re-fetch overflows the cache: an
				// eviction like the fault path's, its write-back owed.
				p.NoteEviction(t, v)
				if v.Dirty {
					p.WritebackPage(t, v.Page)
				}
			}
		}
		p.Epoch++

	case opts.Flags&relaxedModes != 0:
		// Nothing to do: the cache is cold (migration/evict) or the user
		// owns synchronisation (weak ordering).

	default:
		// §4.1: merge the temporary context's dirty bits into the full page
		// table — a local operation in the memory pool, no communication.
		// Merged dirty pages will need a storage write-back if the pool
		// later evicts them.
		p.M.Charge(t, metrics.CompPushProto, hw.OpNs(cfg.MemoryClockGHz, float64(r.temp.len())*cfg.PTEVisitOps))
		if p.PoolRes != nil {
			for _, pg := range r.temp.dirtyPages() {
				p.PoolRes.MarkDirty(pg)
			}
		}
	}
}

// acquire waits for a free memory-pool user context. A request still queued
// at the call's deadline (deadlineAt, 0 = none) is cancelled there
// (try_cancel): it leaves the queue and resumes at the deadline.
func (r *Runtime) acquire(t *sim.Thread, deadlineAt sim.Time) error {
	if r.running < r.Contexts {
		r.setRunning(r.running + 1)
		return nil
	}
	r.queue = append(r.queue, t)
	if !t.BlockUntil(deadlineAt) {
		i := slices.Index(r.queue, t)
		r.queue = slices.Delete(r.queue, i, i+1)
		return ErrDeadlineExceeded
	}
	return nil
}

// release frees the caller's user context and hands it to the oldest waiter.
func (r *Runtime) release(t *sim.Thread) {
	r.setRunning(r.running - 1)
	if len(r.queue) == 0 {
		return
	}
	w := r.queue[0]
	r.queue = r.queue[1:]
	r.setRunning(r.running + 1)
	w.Unblock(t.Now())
}

// setRunning sets how many user contexts run, and with it the process's
// PoolDilation: memory-pool CPU contention, where with more runnable user
// contexts than physical cores each context's work stretches by the
// oversubscription ratio plus a context-switching penalty (§7.3, Figure 17's
// diminishing returns).
func (r *Runtime) setRunning(n int) {
	r.running = n
	cores := r.P.M.Cfg.HW.MemoryPoolCores
	if n <= cores {
		r.P.PoolDilation = 1
		return
	}
	over := float64(n - cores)
	r.P.PoolDilation = float64(n) / float64(cores) * (1 + ctxSwitchPenalty*over)
}

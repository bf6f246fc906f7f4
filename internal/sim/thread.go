package sim

// Thread is a simulated thread of execution. It owns a virtual clock that
// advances as the thread charges costs for the work it performs. A Thread is
// either standalone (created with NewThread, no interleaving) or attached to
// a Scheduler, in which case Advance may yield control so that the scheduler
// can run whichever thread is furthest behind in virtual time.
type Thread struct {
	name  string
	now   Time
	sched *Scheduler

	// Scheduler bookkeeping (nil scheduler ⇒ unused).
	index  int  // global spawn index: the deterministic tie-break
	hpos   int  // position in the domain's ready heap (-1 = not queued)
	held   Time // a timed block's own clock while it waits at its wake time
	state  threadState
	dom    *domain // owning execution domain
	resume chan struct{}
}

type threadState int

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

// NewThread returns a standalone simulated thread starting at virtual time 0.
// Standalone threads never yield; they are the fast path for single-threaded
// workloads.
func NewThread(name string) *Thread {
	return &Thread{name: name}
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's current virtual time.
func (t *Thread) Now() Time { return t.now }

// Advance charges d of virtual time to the thread. If the thread runs under
// a scheduler and another runnable thread is now behind it, the thread
// yields.
func (t *Thread) Advance(d Time) {
	if d < 0 {
		panic("sim: negative advance")
	}
	t.now += d
	if t.sched != nil {
		t.sched.maybeYield(t)
	}
}

// Slack returns the largest d for which Advance(d) would return without
// yielding: a caller that is about to charge several costs whose sum stays
// within it may charge the sum at once, because none of the separate
// advances could have handed control to another thread. It is unbounded for a
// standalone thread and for a thread that is the only runnable one inside an
// open window, and negative when the next Advance yields whatever it charges.
func (t *Thread) Slack() Time {
	if t.sched == nil {
		return horizonMax
	}
	d := t.dom
	slack := d.horizon - t.now - 1
	if n := d.peek(); n != nil {
		slack = min(slack, n.now+t.sched.quantum-t.now)
	}
	return slack
}

// AdvanceTo moves the thread's clock forward to at least ts (it never moves
// the clock backwards). Use it to model waiting for an event that completes
// at a known virtual time.
func (t *Thread) AdvanceTo(ts Time) {
	if ts > t.now {
		t.Advance(ts - t.now)
	}
}

// AdvanceNs charges a floating-point nanosecond cost.
func (t *Thread) AdvanceNs(ns float64) { t.Advance(FromNs(ns)) }

// Block parks the thread until another simulated thread calls Unblock (same
// domain) or Post (any domain). The thread's clock is advanced to the
// wake-up time supplied by the unblocker. Block panics on a standalone
// thread (nothing could ever wake it).
func (t *Thread) Block() { t.BlockUntil(0) }

// BlockUntil is Block with a wake time: if no Unblock or Post comes first,
// the scheduler wakes the thread at until (or at once, if its clock is
// already past it), in virtual-time order with every other thread, and
// BlockUntil returns false with the clock at until. An Unblock or Post that
// comes first resumes it at its blocked clock or the wake-up time, whichever
// is later, and BlockUntil returns true. until 0 means no wake time.
func (t *Thread) BlockUntil(until Time) bool {
	if t.sched == nil {
		panic("sim: Block on standalone thread " + t.name)
	}
	return t.sched.block(t, until)
}

// Unblock marks a blocked thread runnable again, with its clock advanced to
// at least `at`. It must be called from another simulated thread (or from
// scheduler-driven code) of the same scheduler and the same domain; use
// Thread.Post for cross-domain wakes.
func (t *Thread) Unblock(at Time) {
	if t.sched == nil {
		panic("sim: Unblock on standalone thread " + t.name)
	}
	t.sched.unblock(t, at)
}

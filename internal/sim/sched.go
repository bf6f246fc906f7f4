package sim

import (
	"fmt"
	"strings"
)

// Scheduler interleaves a set of simulated threads in virtual-time order.
//
// Within a domain exactly one simulated thread executes real Go code at any
// moment (baton passing over channels), so shared simulator state needs no
// locking and every run is deterministic. Whenever the running thread's
// clock moves more than one quantum ahead of another runnable thread, it
// yields and the scheduler resumes the thread that is furthest behind. Ties
// break by spawn order.
//
// The core is event-driven: each domain keeps its runnable threads in an
// indexed min-heap ordered by (clock, spawn index), so the yield check is an
// O(1) comparison against the heap root and picking the next thread is an
// O(log n) pop. The baton passes directly from the yielding thread to the
// next one — two channel operations per switch — without round-tripping
// through Run's loop, and a thread that is the only runnable one just keeps
// running (skip-ahead: the empty-heap check never parks it).
//
// Threads spawned through Scheduler.Spawn share one default domain and
// behave exactly as a single sequential scheduler. NewDomain adds further
// domains — one per simulated machine — which advance concurrently under a
// conservative lookahead window; see domain.go.
type Scheduler struct {
	threads []*Thread
	domains []*domain
	def     *domain // lazily-created target of Scheduler.Spawn
	quantum Time
	started bool

	// Conservative parallel execution (multi-domain runs only).
	lookahead Time // minimum cross-domain message latency
	workers   int  // host goroutines draining domains inside a window
	pending   []mail
	workCh    chan windowJob
	ackCh     chan struct{}
}

// DefaultQuantum is the scheduling hysteresis: a running thread yields only
// once it is more than this far ahead of another runnable thread. A small
// non-zero quantum keeps interleaving faithful at microsecond granularity
// while avoiding a real context switch per simulated memory access.
const DefaultQuantum = 2 * Microsecond

// horizonMax is the open window used for single-domain runs: no thread ever
// parks at the window edge, so the sequential schedule is identical to the
// classic one-baton scheduler.
const horizonMax = Time(1<<63 - 1)

// NewScheduler returns an empty scheduler with the default quantum.
func NewScheduler() *Scheduler {
	return &Scheduler{quantum: DefaultQuantum}
}

// SetQuantum overrides the scheduling hysteresis. Zero means strict
// virtual-time order.
func (s *Scheduler) SetQuantum(q Time) { s.quantum = q }

// Spawn registers a new simulated thread running fn, starting at virtual
// time `start`. It may be called before Run or by an already-running
// simulated thread (in which case the new thread typically starts at the
// spawner's current time). Threads spawned here share the scheduler's
// default domain; use NewDomain for multi-machine parallel runs.
func (s *Scheduler) Spawn(name string, start Time, fn func(*Thread)) *Thread {
	if s.def == nil {
		s.def = s.addDomain("main")
	}
	return s.def.spawn(name, start, fn)
}

// spawn registers a thread in domain d. The heap insert puts it in correct
// virtual-time position immediately, so a thread spawned mid-run with an
// earlier start time preempts at the spawner's next yield check.
func (d *domain) spawn(name string, start Time, fn func(*Thread)) *Thread {
	s := d.s
	t := &Thread{
		name:   name,
		now:    start,
		sched:  s,
		index:  len(s.threads),
		state:  stateReady,
		hpos:   -1,
		dom:    d,
		resume: make(chan struct{}),
	}
	s.threads = append(s.threads, t)
	d.nLive++
	d.push(t)
	go func() {
		<-t.resume
		t.state = stateRunning
		fn(t)
		d.finish(t)
	}()
	return t
}

// finish retires a completed thread and hands the baton onward.
func (d *domain) finish(t *Thread) {
	t.state = stateDone
	d.nLive--
	d.maxFinish = max(d.maxFinish, t.now)
	d.stop(t, false, true)
}

// stop is the single baton-handoff point, called by the running thread when
// it gives up control: quantum yield, window edge, block, or completion. If
// ready, the thread re-enters the ready heap first (so it is a handoff
// candidate for itself only through heap order). The baton goes directly to
// the next runnable thread inside the window — one channel send — or back
// to the domain driver when none remains. Unless done, the caller then
// parks until some thread (or the driver) passes the baton back, and stop
// returns the state it was resumed from: stateBlocked when nothing unblocked
// it, so a timed block's wake time came first. A timed block whose wake time
// is the domain's next event resumes the thread at once, without a handoff.
//
// All heap and state mutations happen before the channel send, and after
// sending the stopping thread only receives on its own resume channel (or
// returns), so the happens-before chain runs entirely through channel
// operations.
func (d *domain) stop(t *Thread, ready, done bool) threadState {
	if ready {
		t.state = stateReady
		d.push(t)
	}
	n := d.peek()
	if n == t && t.now < d.horizon {
		d.remove(t)
	} else {
		d.switches++
		if n != nil && n.now < d.horizon {
			d.remove(n)
			n.resume <- struct{}{}
		} else {
			d.wake <- struct{}{}
		}
		if done {
			return stateDone
		}
		<-t.resume
	}
	from := t.state
	t.state = stateRunning
	return from
}

// Run drives all spawned threads to completion and returns the maximum
// finish time (the virtual makespan), tracked per domain as threads retire
// rather than rescanned from the thread table. It panics if all remaining
// threads are blocked (a simulated deadlock) — that is always a bug in the
// model — and the panic lists every blocked thread.
func (s *Scheduler) Run() Time {
	if s.started {
		panic("sim: Scheduler.Run called twice")
	}
	s.started = true
	switch len(s.domains) {
	case 0:
		// Nothing was ever spawned.
	case 1:
		s.domains[0].runWindow(horizonMax)
	default:
		s.runWindows()
	}
	var end Time
	live := 0
	for _, d := range s.domains {
		end = max(end, d.maxFinish)
		live += d.nLive
	}
	if live > 0 {
		s.deadlock()
	}
	return end
}

// deadlock reports every blocked thread. Cold path: the scan over the
// thread table only happens when the simulation is already broken.
func (s *Scheduler) deadlock() {
	var blocked []string
	for _, t := range s.threads {
		if t.state == stateBlocked {
			blocked = append(blocked, t.name)
		}
	}
	panic("sim: deadlock, threads blocked forever: " + strings.Join(blocked, ", "))
}

// runWindow resumes the domain's threads in virtual-time order until no
// runnable thread remains below horizon h. A running thread may overshoot h
// by the tail of its final Advance before parking at its next yield check —
// bounded overshoot, the same hysteresis the quantum already allows.
func (d *domain) runWindow(h Time) {
	d.horizon = h
	n := d.peek()
	if n == nil || n.now >= h {
		return
	}
	d.remove(n)
	n.resume <- struct{}{}
	<-d.wake
}

// maybeYield parks the running thread if it crossed the window horizon or
// if another runnable thread has fallen more than a quantum behind it. The
// heap root is the furthest-behind runnable thread, so one comparison
// decides; skip-ahead falls out of the same check — with an empty heap (the
// thread is the only runnable one) it never parks.
func (s *Scheduler) maybeYield(t *Thread) {
	if t.state != stateRunning {
		return
	}
	d := t.dom
	if t.now < d.horizon {
		n := d.peek()
		if n == nil || n.now+s.quantum >= t.now {
			return
		}
	}
	d.stop(t, true, false)
}

// block parks t until some other thread unblocks it or, with until > 0,
// until its clock reaches until, whichever comes first: the thread then
// waits in the ready heap at until, keeping its own clock in held. It
// reports whether it was unblocked.
func (s *Scheduler) block(t *Thread, until Time) bool {
	t.state = stateBlocked
	if until > 0 {
		t.held = t.now
		t.now = max(t.now, until)
		t.dom.push(t)
	}
	return t.dom.stop(t, false, false) != stateBlocked
}

// unblock makes u runnable with its clock advanced to at least `at`; a timed
// block leaves the heap slot of its wake time and resumes from its own clock.
func (s *Scheduler) unblock(u *Thread, at Time) {
	if u.state != stateBlocked {
		panic(fmt.Sprintf("sim: unblock of non-blocked thread %s", u.name))
	}
	if u.hpos >= 0 {
		u.dom.remove(u)
		u.now = u.held
	}
	u.now = max(u.now, at)
	u.state = stateReady
	u.dom.push(u)
}

// Switches returns the total number of baton handoffs performed so far
// (context switches plus terminal parks), summed over all domains. It
// exists for tests and benchmarks that pin down the skip-ahead and direct
// handoff behavior.
func (s *Scheduler) Switches() int64 {
	var n int64
	for _, d := range s.domains {
		n += d.switches
	}
	return n
}

package sim

import (
	"fmt"
	"sort"
)

// Conservative parallel discrete-event execution.
//
// A Domain groups the simulated threads of one machine. Threads within a
// domain interleave under the usual one-baton rule; threads in different
// domains interact only through Post, which models a message with a known
// minimum latency L (the lookahead). That bound makes windowed execution
// safe: if G is the smallest clock of any runnable thread, no cross-domain
// message sent from now on can wake anything before G+L, so every domain
// may advance to the horizon H = G+L without hearing from the others.
//
// Run repeats: deliver mail → compute G → run every domain with work below
// H = G+L (concurrently, on up to SetWorkers host goroutines) → collect the
// outboxes. Mail is applied only at the barrier, merged in domain order and
// sorted by (arrival time, target spawn index, sender domain, send seq), so
// the delivery order — and therefore every virtual time — is independent of
// the worker count and of which host goroutine ran which domain. Domains
// never share simulator state inside a window; the barrier is the only
// cross-domain synchronization.
type Domain struct {
	d *domain
}

// domain is the scheduler-internal per-machine execution context. Its heap,
// counters, and outbox are touched only by the domain's own running threads
// (one at a time, baton rule) and by the coordinator between windows; the
// work/ack channel handoff orders the two.
type domain struct {
	s       *Scheduler
	index   int
	name    string
	heap    []*Thread
	horizon Time
	wake    chan struct{} // driver parks here while a thread runs

	outbox []mail // cross-domain wakes produced this window
	outSeq int    // per-domain send counter (mail sort tie-break)

	nLive int // spawned and not yet done

	maxFinish Time  // max clock of retired threads
	switches  int64 // baton handoffs (see Scheduler.Switches)
}

// mail is one buffered cross-domain wake: target becomes runnable at `at`.
type mail struct {
	to  *Thread
	at  Time
	dom int // sender domain index
	seq int // sender domain send counter
}

// windowJob asks a worker to drain one domain up to horizon h.
type windowJob struct {
	d *domain
	h Time
}

// NewDomain adds an execution domain — one simulated machine — to the
// scheduler. Threads spawned on different domains may only interact through
// Post; same-domain threads keep the full Block/Unblock vocabulary.
func (s *Scheduler) NewDomain(name string) *Domain {
	return &Domain{d: s.addDomain(name)}
}

func (s *Scheduler) addDomain(name string) *domain {
	d := &domain{
		s:     s,
		index: len(s.domains),
		name:  name,
		wake:  make(chan struct{}),
	}
	s.domains = append(s.domains, d)
	return d
}

// Spawn registers a new simulated thread in this domain. Semantics match
// Scheduler.Spawn; the spawn index (and so every tie-break) is global
// across domains.
func (dm *Domain) Spawn(name string, start Time, fn func(*Thread)) *Thread {
	return dm.d.spawn(name, start, fn)
}

// SetLookahead declares the minimum cross-domain message latency L: every
// Post must arrive at least L after the sender's current clock. Multi-domain
// runs require a positive lookahead — it is the window size that lets
// domains advance concurrently while staying deterministic. Use the
// fabric's minimum link latency (netmodel.Fabric.MinLatency) or any larger
// bound the model guarantees, e.g. a BSP sync epoch.
func (s *Scheduler) SetLookahead(l Time) { s.lookahead = l }

// SetWorkers bounds how many host goroutines drain domains inside one
// window. Values below 2 mean sequential draining. The setting changes only
// host parallelism: virtual times are bit-identical at any worker count,
// because windows and mail delivery are computed identically either way.
func (s *Scheduler) SetWorkers(n int) { s.workers = n }

// Post delivers a cross-domain wake: u becomes runnable at virtual time
// `at` (or at its blocking time, if later). For a same-domain target it is
// identical to Unblock. Cross-domain, `at` must respect the lookahead —
// at ≥ sender.now + L — which is what makes the conservative window safe;
// undercutting it panics. The wake is buffered in the sender domain's
// outbox and applied at the next barrier.
func (t *Thread) Post(u *Thread, at Time) {
	if t.sched == nil || u.sched == nil {
		panic("sim: Post involving standalone thread")
	}
	if t.sched != u.sched {
		panic("sim: Post across schedulers")
	}
	if u.dom == t.dom {
		t.sched.unblock(u, at)
		return
	}
	d := t.dom
	if at < t.now+t.sched.lookahead {
		panic(fmt.Sprintf(
			"sim: Post to %s at %dns undercuts lookahead %dns from sender time %dns: cross-domain messages must take at least the declared minimum latency",
			u.name, int64(at), int64(t.sched.lookahead), int64(t.now)))
	}
	d.outSeq++
	d.outbox = append(d.outbox, mail{to: u, at: at, dom: d.index, seq: d.outSeq})
}

// runWindows is the multi-domain driver: the conservative window barrier
// loop. Each iteration delivers pending mail, computes the global lower
// bound G over all ready heaps, and runs every domain that has work below
// H = G + lookahead. The active-domain set, the horizon, and the mail order
// depend only on virtual state, never on host timing.
func (s *Scheduler) runWindows() {
	if s.lookahead <= 0 {
		panic("sim: multi-domain Run requires a positive SetLookahead (the conservative window needs a minimum cross-domain latency)")
	}
	workers := s.workers
	if workers > len(s.domains) {
		workers = len(s.domains)
	}
	if workers > 1 {
		s.workCh = make(chan windowJob, len(s.domains))
		s.ackCh = make(chan struct{}, len(s.domains))
		for i := 0; i < workers; i++ {
			go s.windowWorker()
		}
		defer close(s.workCh)
	}
	active := make([]*domain, 0, len(s.domains))
	for {
		s.deliverMail()
		glb := horizonMax
		for _, d := range s.domains {
			if n := d.peek(); n != nil && n.now < glb {
				glb = n.now
			}
		}
		if glb == horizonMax {
			// No runnable thread anywhere and no deliverable mail: every
			// live thread (if any) is blocked forever. Run's sweep decides
			// between completion and deadlock.
			return
		}
		h := glb + s.lookahead
		active = active[:0]
		for _, d := range s.domains {
			if n := d.peek(); n != nil && n.now < h {
				active = append(active, d)
			}
		}
		if workers <= 1 || len(active) == 1 {
			for _, d := range active {
				d.runWindow(h)
			}
		} else {
			for _, d := range active {
				s.workCh <- windowJob{d: d, h: h}
			}
			for range active {
				<-s.ackCh
			}
		}
		s.collectMail()
	}
}

// windowWorker drains domains handed to it by the coordinator. Workers
// never touch domain state directly — runWindow resumes the domain's own
// threads, and the ack send publishes the finished window back to the
// coordinator before it reads any heap or outbox.
func (s *Scheduler) windowWorker() {
	for job := range s.workCh {
		job.d.runWindow(job.h)
		s.ackCh <- struct{}{}
	}
}

// collectMail moves every domain outbox into the pending list (domain
// order) and sorts pending by (arrival, target spawn index, sender domain,
// send seq) — a total order over all mail, so delivery is deterministic.
func (s *Scheduler) collectMail() {
	grew := false
	for _, d := range s.domains {
		if len(d.outbox) > 0 {
			s.pending = append(s.pending, d.outbox...)
			d.outbox = d.outbox[:0]
			grew = true
		}
	}
	if !grew {
		return
	}
	sort.Slice(s.pending, func(i, j int) bool {
		a, b := s.pending[i], s.pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.to.index != b.to.index {
			return a.to.index < b.to.index
		}
		if a.dom != b.dom {
			return a.dom < b.dom
		}
		return a.seq < b.seq
	})
}

// deliverMail applies pending cross-domain wakes to targets that are
// blocked right now, earliest mail first, at most one per target per
// barrier (delivering one makes the target ready, so later mail for it is
// retained). Mail for a target that has not blocked yet — it was still
// ready or running when the message "arrived" — stays pending until a
// barrier finds it blocked; the wake time is max(block time, arrival), the
// same rendezvous a real receive would produce. Mail that arrives after a
// timed block's wake time waits too: the wake comes first.
func (s *Scheduler) deliverMail() {
	if len(s.pending) == 0 {
		return
	}
	kept := s.pending[:0]
	for _, m := range s.pending {
		switch u := m.to; {
		case u.state == stateDone:
			panic("sim: Post to finished thread " + u.name)
		case u.state == stateBlocked && (u.hpos < 0 || m.at <= u.now):
			s.unblock(u, m.at)
		default:
			kept = append(kept, m)
		}
	}
	tail := s.pending[len(kept):]
	for i := range tail {
		tail[i] = mail{}
	}
	s.pending = kept
}

package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// admissionModel is the abstract state machine behind a Runtime's admission
// and its circuit breaker (§3.2): an unbounded FIFO of (arrival, deadline)
// waiters, a count of running contexts held against Contexts, §7.3's
// PoolDilation as a function of that count, and a closed / open /
// half-open breaker whose every transition starts a generation. It is fed
// the operations in the order the simulated threads make them and says what
// each must do; it never reads the Runtime's own fields.
type admissionModel struct {
	contexts, cores int
	threshold       int
	cooldown        sim.Time

	running int
	queue   []admWaiter
	wakes   map[int]admWake // per thread: how its queued acquire returns, once decided

	state    breakerState
	gen      uint64
	streak   int
	openedAt sim.Time
	events   []trace.Event // the breaker's trace events, in order
}

type admWaiter struct {
	id                int
	arrival, deadline sim.Time // deadline 0 = none
}

type admWake struct {
	at  sim.Time
	err error
}

// arrive is one request for a context at now: it runs if a context is free,
// and otherwise joins the queue's tail. It reports whether the request
// queued.
func (m *admissionModel) arrive(id int, now, deadline sim.Time) bool {
	if m.running < m.contexts {
		m.running++
		return false
	}
	m.queue = append(m.queue, admWaiter{id: id, arrival: now, deadline: deadline})
	return true
}

// release gives a context back at now: the oldest waiter starts at now.
func (m *admissionModel) release(now sim.Time) {
	m.running--
	if len(m.queue) == 0 {
		return
	}
	w := m.queue[0]
	m.queue = m.queue[1:]
	m.running++
	m.wakes[w.id] = admWake{at: max(w.arrival, now)}
}

// cancel is a waiter's own timed wake (try_cancel while queued): it leaves
// the queue and resumes at its deadline with ErrDeadlineExceeded. It reports
// false if the waiter is not queued or has no deadline.
func (m *admissionModel) cancel(id int) bool {
	i := slices.IndexFunc(m.queue, func(w admWaiter) bool { return w.id == id })
	if i < 0 || m.queue[i].deadline == 0 {
		return false
	}
	m.wakes[id] = admWake{at: m.queue[i].deadline, err: ErrDeadlineExceeded}
	m.queue = slices.Delete(m.queue, i, i+1)
	return true
}

// dilation is §7.3's stretch of pool work with more running contexts than
// cores: the oversubscription ratio times a context-switch penalty.
func (m *admissionModel) dilation() float64 {
	if m.running <= m.cores {
		return 1
	}
	return float64(m.running) / float64(m.cores) * (1 + ctxSwitchPenalty*float64(m.running-m.cores))
}

func (m *admissionModel) event(who string, at sim.Time, k trace.Kind, arg int64) {
	m.events = append(m.events, trace.Event{At: at, Kind: k, Arg: arg, Who: who})
}

// transition moves the breaker to state and starts a new generation.
func (m *admissionModel) transition(state breakerState) {
	m.state = state
	m.gen++
}

// allow is the breaker's gate at now, and the generation the attempt is
// admitted under: closed lets the attempt through, open refuses it until the
// cooldown has passed and then turns half-open and lets this one probe
// through, and half-open refuses every other caller.
func (m *admissionModel) allow(who string, now sim.Time) (uint64, bool) {
	if m.threshold == 0 || m.state == brClosed {
		return m.gen, true
	}
	if m.state == brHalfOpen || now-m.openedAt < m.cooldown {
		return m.gen, false
	}
	m.transition(brHalfOpen)
	m.event(who, now, trace.KindBreakerHalfOpen, 0)
	return m.gen, true
}

// failure counts one recoverable failure of an attempt admitted under gen:
// the threshold-th in a row opens a closed breaker, and any failure re-opens
// a half-open one. An attempt from an older generation counts for nothing.
func (m *admissionModel) failure(who string, now sim.Time, gen uint64) {
	if m.threshold == 0 || gen != m.gen {
		return
	}
	m.streak++
	if m.state == brHalfOpen || (m.state == brClosed && m.streak >= m.threshold) {
		m.transition(brOpen)
		m.openedAt = now
		m.event(who, now, trace.KindBreakerOpen, int64(m.streak))
	}
}

// success ends the failure streak and closes the breaker, unless the attempt
// was admitted under an older generation.
func (m *admissionModel) success(who string, now sim.Time, gen uint64) {
	if m.threshold == 0 || gen != m.gen {
		return
	}
	m.streak = 0
	if m.state != brClosed {
		m.transition(brClosed)
		m.event(who, now, trace.KindBreakerClose, 0)
	}
}

// diff compares the Runtime's admission and breaker state, and the trace so
// far, with the model's at now, when no waiter may still be queued past its
// deadline; threads maps a model thread id to its simulated thread.
func (m *admissionModel) diff(now sim.Time, rt *Runtime, ring *trace.Ring, threads []*sim.Thread) string {
	if rt.running != m.running {
		return fmt.Sprintf("running = %d, model %d", rt.running, m.running)
	}
	if got, want := rt.P.PoolDilation, m.dilation(); got != want {
		return fmt.Sprintf("PoolDilation = %v with %d running, model %v", got, m.running, want)
	}
	var queue []string
	for _, w := range rt.queue {
		queue = append(queue, w.Name())
	}
	var want []string
	for _, w := range m.queue {
		if w.deadline > 0 && now > w.deadline {
			return fmt.Sprintf("%s still queued past its deadline %v", threads[w.id].Name(), w.deadline)
		}
		want = append(want, threads[w.id].Name())
	}
	if !slices.Equal(queue, want) {
		return fmt.Sprintf("queue = %v, model %v", queue, want)
	}
	if rt.brState != m.state || rt.brGen != m.gen || rt.brStreak != m.streak || rt.brOpenedAt != m.openedAt {
		return fmt.Sprintf("breaker state %d gen %d streak %d opened %v, model %d %d %d %v",
			rt.brState, rt.brGen, rt.brStreak, rt.brOpenedAt, m.state, m.gen, m.streak, m.openedAt)
	}
	var opens, halfOpens, closes int64
	for _, e := range m.events {
		switch e.Kind {
		case trace.KindBreakerOpen:
			opens++
		case trace.KindBreakerHalfOpen:
			halfOpens++
		case trace.KindBreakerClose:
			closes++
		}
	}
	if s := rt.Stats(); s.BreakerOpens != opens || s.BreakerHalfOpens != halfOpens || s.BreakerCloses != closes {
		return fmt.Sprintf("breaker opens/half-opens/closes = %d/%d/%d, model %d/%d/%d",
			s.BreakerOpens, s.BreakerHalfOpens, s.BreakerCloses, opens, halfOpens, closes)
	}
	if got := ring.Events(); !slices.Equal(got, m.events) {
		return fmt.Sprintf("trace = %v, model %v", got, m.events)
	}
	return ""
}

// admCall is one call a driver thread makes: it waits gap, asks for a
// context with a deadline budget after its arrival (0 = none), holds the
// context for hold, and then counts as a success or, if fails, a
// recoverable failure.
type admCall struct {
	gap, hold, budget sim.Time
	fails             bool
}

// FuzzAdmissionModel drives a Runtime's admission and breaker from one to
// four simulated threads and checks them against admissionModel in lock
// step. Each call takes the steps PushdownWithPolicy takes around one
// attempt — breakerAllow, acquire with the call's Policy.Deadline instant,
// the hold, release, then breakerSuccess or breakerFailure (an expired
// request is a recoverable failure too) — and the fuzzer chooses the
// contexts and cores, the policy, arrivals, hold times, deadlines and
// outcomes. Before and after every step it compares running contexts,
// PoolDilation, the queue's waiters, and the breaker's state, counters and
// trace events, and no waiter may still be queued past its deadline. A
// request that comes back from acquire must have run when the model's
// release said, or, if the model still has it queued, have been cancelled
// by its own timed wake: ErrDeadlineExceeded exactly at its deadline.
func FuzzAdmissionModel(f *testing.F) {
	// Header: threads, contexts, cores, BreakerThreshold, BreakerCooldown
	// (×10 µs); then 4 bytes a call: thread (bit 6: fails),
	// gap, hold and deadline budget, in µs.
	//
	// One context held 40 µs by t0; t1 queues at 2 µs with a 10 µs budget
	// and its own timed wake cancels it at 12 µs, so t2, queueing at 20 µs,
	// and t3 behind it at 25 µs get the context at 40 and 45 µs.
	f.Add([]byte{3, 0, 0, 0, 0,
		0, 0, 40, 0, 1, 2, 5, 10, 2, 20, 5, 0, 3, 25, 5, 0})
	// Three waiters behind one context: each release hands it to the oldest.
	f.Add([]byte{2, 0, 1, 0, 0,
		0, 0, 30, 0, 1, 1, 10, 0, 2, 2, 10, 0, 0, 0, 5, 0, 1, 0, 5, 0, 2, 0, 5, 0})
	// A breaker at threshold 2 with a 20 µs cooldown: two failing calls open
	// it, a third is short-circuited, a later probe fails and re-opens it,
	// and one after the next cooldown succeeds and closes it.
	f.Add([]byte{0, 0, 0, 2, 2,
		0x40, 0, 5, 0, 0x40, 0, 5, 0, 0, 1, 5, 0, 0x40, 30, 5, 0, 0, 30, 5, 0, 0, 1, 5, 0})
	// Four threads on two contexts and one core, threshold 1: t0 and t1 run
	// at dilation 2·(1+penalty), t2 queues at 1 µs with a 3 µs budget and t3
	// behind it at 2 µs. t2 is cancelled at its 4 µs deadline, and its
	// failure opens the breaker then; its half-open probe queues at 14 µs.
	// The releases at 20 µs hand the contexts to t3 and the probe, t1
	// short-circuits at 23 µs while the probe runs, the probe closes the
	// breaker at 25 µs, and t3's failing call opens it again at 26 µs.
	f.Add([]byte{3, 1, 0, 1, 1,
		0, 0, 20, 0, 1, 0, 20, 0, 2, 1, 5, 3, 3, 2, 5, 0, 2, 10, 5, 0, 0x43, 0, 1, 0, 1, 3, 2, 0})
	// Threshold 1, a 10 µs cooldown, two threads on two contexts: t0's
	// failure opens the breaker at 5 µs and t0 probes half-open at 15 µs,
	// holding its context to 25 µs. t1 arrives at 16 µs, while the probe
	// runs, and must short-circuit; the probe's success closes the breaker.
	f.Add([]byte{1, 1, 0, 1, 1,
		0x40, 0, 5, 0, 0, 10, 10, 0, 1, 16, 5, 0})
	// Threshold 1, a 100 µs cooldown, two threads on two contexts: t1 is
	// admitted at 0 µs and holds its context to 30 µs, and t0 fails at 5 µs
	// and opens the breaker. t1's success was admitted under the closed
	// generation, so it must not close the breaker during the cooldown.
	f.Add([]byte{1, 1, 0, 1, 10,
		0x40, 0, 5, 0, 1, 0, 30, 0})
	// A release on a waiter's exact deadline: t0 holds the one context to
	// 20 µs, and t1 queues at 5 µs with a 15 µs budget. Both are due at
	// 20 µs and t0 was spawned first, so its release hands t1 the context.
	f.Add([]byte{1, 0, 0, 0, 0,
		0, 0, 20, 0, 1, 5, 5, 15})
	// The same with the roles swapped: the waiter t0 was spawned first, so
	// its timed wake at 20 µs cancels it before t1's release, which finds
	// the queue empty.
	f.Add([]byte{1, 0, 0, 0, 0,
		1, 0, 20, 0, 0, 5, 5, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nThreads := 1 + next()%4
		cfg := ddc.BaseDDC(64 * mem.PageSize)
		contexts := 1 + next()%4
		cfg.HW.MemoryPoolCores = 1 + next()%4
		machine := ddc.MustMachine(cfg)
		ring := trace.New(1024)
		machine.AttachTrace(ring)
		rt := NewRuntime(machine.NewProcess(), contexts)
		rt.Policy = Policy{BreakerThreshold: next() % 5}
		rt.Policy.BreakerCooldown = sim.Time(next()%16) * 10 * sim.Microsecond
		model := &admissionModel{
			contexts: contexts, cores: cfg.HW.MemoryPoolCores,
			threshold: rt.Policy.BreakerThreshold, cooldown: rt.Policy.BreakerCooldown,
			wakes: map[int]admWake{},
		}
		calls := make([][]admCall, nThreads)
		for n := 0; n < 64 && len(data) > 0; n++ {
			b := next()
			calls[b%nThreads] = append(calls[b%nThreads], admCall{
				fails:  b&0x40 != 0,
				gap:    sim.Time(next()%32) * sim.Microsecond,
				hold:   sim.Time(next()%64) * sim.Microsecond,
				budget: sim.Time(next()%48) * sim.Microsecond,
			})
		}

		// Strict virtual-time order: with a quantum, a release a little past
		// a waiter's deadline could beat its timed wake, which Pushdown's
		// checkpoint after acquire catches and these steps do not take.
		s := sim.NewScheduler()
		s.SetQuantum(0)
		threads := make([]*sim.Thread, nThreads)
		step, failed := 0, false
		check := func(th *sim.Thread, what string) {
			step++
			if failed {
				return
			}
			if d := model.diff(th.Now(), rt, ring, threads); d != "" {
				failed = true
				t.Errorf("step %d (%s at %v, %s): %s", step, th.Name(), th.Now(), what, d)
			}
		}
		mismatch := func(th *sim.Thread, format string, args ...any) {
			if !failed {
				failed = true
				t.Errorf("step %d (%s at %v): %s", step, th.Name(), th.Now(), fmt.Sprintf(format, args...))
			}
		}
		for id := range threads {
			threads[id] = s.Spawn(fmt.Sprintf("t%d", id), 0, func(th *sim.Thread) {
				for _, c := range calls[id] {
					th.Advance(c.gap)
					now := th.Now()
					check(th, "arrival")
					gen, allowed := rt.breakerAllow(th)
					if wantGen, want := model.allow(th.Name(), now); gen != wantGen || allowed != want {
						mismatch(th, "breakerAllow = %d, %v, model %d, %v", gen, allowed, wantGen, want)
					}
					check(th, "breaker gate")
					if !allowed {
						continue // short-circuited: PushdownWithPolicy runs fn locally
					}
					var deadline sim.Time
					if c.budget > 0 {
						deadline = now + c.budget
					}
					queued := model.arrive(id, now, deadline)
					err := rt.acquire(th, deadline)
					want := admWake{at: now}
					if queued {
						if _, granted := model.wakes[id]; !granted && !model.cancel(id) {
							mismatch(th, "acquire returned %v, but the model has no release or deadline for the request", err)
						}
						want = model.wakes[id]
						delete(model.wakes, id)
					}
					if !errors.Is(err, want.err) || th.Now() != want.at {
						mismatch(th, "acquire = %v at %v, model %v at %v", err, th.Now(), want.err, want.at)
					}
					check(th, "acquire")
					if err != nil {
						rt.breakerFailure(th, gen)
						model.failure(th.Name(), th.Now(), gen)
						check(th, "expired")
						continue
					}
					th.Advance(c.hold)
					check(th, "hold")
					rt.release(th)
					model.release(th.Now())
					check(th, "release")
					if c.fails {
						rt.breakerFailure(th, gen)
						model.failure(th.Name(), th.Now(), gen)
					} else {
						rt.breakerSuccess(th, gen)
						model.success(th.Name(), th.Now(), gen)
					}
					check(th, "outcome")
				}
			})
		}
		s.Run()
		if !failed && (rt.running != 0 || len(rt.queue) != 0 || len(model.wakes) != 0) {
			t.Errorf("after the run: %d running, %d queued, model wakes left %v", rt.running, len(rt.queue), model.wakes)
		}
	})
}

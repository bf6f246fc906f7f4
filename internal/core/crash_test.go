package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// incVec returns a Func that increments every i64 slot of a vector in
// place — a deliberately non-idempotent read-modify-write: if a partial
// execution's writes survived a crash, re-execution would double-increment
// the prefix. The vector spans enough pages that an armed mid-crash (whose
// crash point lies within the first midCrashTouchSpan page accesses) always
// fires before the function finishes.
func incVec(a mem.Addr, n int) Func {
	return func(env *ddc.Env) {
		for i := 0; i < n; i++ {
			addr := a + mem.Addr(i*8)
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}
}

// vecPages sizes a vector at one i64 per page so every slot access is a
// fresh page touch.
const vecPages = 520

func fillVecPages(p *ddc.Process, th *sim.Thread) mem.Addr {
	a := p.Space.AllocPages(vecPages*mem.PageSize, "vec")
	env := p.NewEnv(th)
	for i := 0; i < vecPages; i++ {
		env.WriteI64(a+mem.Addr(i)*mem.PageSize, int64(i))
	}
	return a
}

func incVecPages(a mem.Addr) Func {
	return func(env *ddc.Env) {
		for i := 0; i < vecPages; i++ {
			addr := a + mem.Addr(i)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}
}

func checkVecOnce(t *testing.T, p *ddc.Process, th *sim.Thread, a mem.Addr, where string) {
	t.Helper()
	env := p.NewEnv(th)
	for i := 0; i < vecPages; i++ {
		if got := env.ReadI64(a + mem.Addr(i)*mem.PageSize); got != int64(i)+1 {
			t.Fatalf("%s: slot %d = %d, want %d (exactly-once violated)", where, i, got, i+1)
		}
	}
}

// A mid-execution crash on every attempt: the policy re-runs once, the
// rerun crashes too, and the compute-side fallback executes against the
// rolled-back state — so the non-idempotent increments apply exactly once.
func TestMidCrashRollsBackNonIdempotentWrites(t *testing.T) {
	p, rt := testProc(16)
	ring := trace.New(4096)
	p.M.AttachTrace(ring)
	p.M.AttachFault(fault.NewPlan(fault.Profile{Name: "mid", CtxCrashMidProb: 1}, 3))
	th := sim.NewThread("t")
	a := fillVecPages(p, th)

	_, ran, err := rt.PushdownWithPolicy(th, incVecPages(a), Options{})
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	if ran {
		t.Fatal("every attempt crashes mid-execution; fn should have run locally")
	}
	checkVecOnce(t, p, th, a, "after fallback")

	rs := rt.Stats()
	if rs.Rollbacks != 2 || rs.CtxCrashes != 2 {
		t.Fatalf("Rollbacks=%d CtxCrashes=%d, want 2 and 2 (initial attempt + one rerun)", rs.Rollbacks, rs.CtxCrashes)
	}
	if rs.RolledBackPages < rs.Rollbacks {
		t.Fatalf("RolledBackPages = %d, want at least one page per rollback", rs.RolledBackPages)
	}
	if rs.LocalFallbacks != 1 {
		t.Fatalf("LocalFallbacks = %d, want 1", rs.LocalFallbacks)
	}
	if n := countKind(ring, trace.KindPushRollback); n != 2 {
		t.Fatalf("push-rollback events = %d, want 2", n)
	}
}

// A bare Pushdown that crashes mid-execution reports ErrContextCrashed and
// leaves the pool's memory byte-identical to the pre-call state.
func TestBarePushdownMidCrashLeavesMemoryPristine(t *testing.T) {
	p, rt := testProc(16)
	p.M.AttachFault(fault.NewPlan(fault.Profile{Name: "mid", CtxCrashMidProb: 1}, 5))
	th := sim.NewThread("t")
	a := fillVecPages(p, th)

	first, last := mem.PageOf(a), mem.PageOf(a+vecPages*mem.PageSize-1)
	before := make(map[mem.PageID][]byte)
	for pg := first; pg <= last; pg++ {
		before[pg] = p.Space.SnapshotPageInto(pg, nil)
	}

	_, err := rt.Pushdown(th, incVecPages(a), Options{})
	if !errors.Is(err, ErrContextCrashed) {
		t.Fatalf("err = %v, want ErrContextCrashed", err)
	}
	if rt.Stats().RolledBackPages == 0 {
		t.Fatal("RolledBackPages = 0, want > 0 (the crash fired after dirtying pages)")
	}
	for pg := first; pg <= last; pg++ {
		got := p.Space.SnapshotPageInto(pg, nil)
		for i := range got {
			if got[i] != before[pg][i] {
				t.Fatalf("page %d byte %d = %#x, want %#x (rollback incomplete)", pg, i, got[i], before[pg][i])
			}
		}
	}
	// The rolled-back pages' dirty bits were cleared: a follow-up pushdown
	// must not merge never-committed state.
	if rt.refs != 0 {
		t.Fatal("push state leaked after the aborted call")
	}
}

// Mid-execution crashes are deterministic: same seed, same schedule, same
// virtual-time total and counters.
func TestMidCrashSameSeedBitIdentical(t *testing.T) {
	run := func() (sim.Time, RuntimeStats) {
		p, rt := testProc(16)
		p.M.AttachFault(fault.NewPlan(fault.MidCrash(), 11))
		th := sim.NewThread("t")
		a := fillVecPages(p, th)
		for i := 0; i < 6; i++ {
			if _, _, err := rt.PushdownWithPolicy(th, incVecPages(a), Options{}); err != nil {
				t.Fatalf("policy: %v", err)
			}
		}
		return th.Now(), rt.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("same-seed runs differ:\n  t=%v vs %v\n  s=%+v\n  vs %+v", t1, t2, s1, s2)
	}
}

// Deadline budgets: a queued request whose budget expires before a context
// frees up is aborted at the budget instant with ErrDeadlineExceeded — §3.2's
// try_cancel, which succeeds because the request is still queued.
func TestDeadlineExpiresInQueue(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)

	var errSecond error
	var waited sim.Time
	s := sim.NewScheduler()
	s.Spawn("long", 0, func(th *sim.Thread) {
		if _, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.Compute(21_000_000) // ~10 ms
		}, Options{}); err != nil {
			t.Errorf("long pushdown: %v", err)
		}
	})
	s.Spawn("budgeted", 0, func(th *sim.Thread) {
		th.Advance(10 * sim.Microsecond)
		start := th.Now()
		rt.Policy.Deadline = sim.Millisecond // read at entry: the long call runs unbudgeted
		_, errSecond = rt.Pushdown(th, func(env *ddc.Env) {}, Options{})
		waited = th.Now() - start
	})
	s.Run()
	if !errors.Is(errSecond, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", errSecond)
	}
	if !Recoverable(errSecond) {
		t.Fatal("ErrDeadlineExceeded must be Recoverable")
	}
	if waited > 2*sim.Millisecond {
		t.Fatalf("budgeted caller resumed after %v, want ≈ the 1 ms budget", waited)
	}
	if rt.Stats().DeadlineAborts != 1 {
		t.Fatalf("DeadlineAborts = %d, want 1", rt.Stats().DeadlineAborts)
	}
}

// A queued request whose budget has run out leaves the workqueue at its
// deadline: with a 10 ms call holding the one context, A queues at 10 µs
// with a 1 ms budget and is cancelled at that budget, before B arrives
// unbudgeted at 2 ms; B waits for the context and runs after the long call.
func TestExpiredWaiterFreesQueueSlot(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)

	var errA, errB error
	var doneA sim.Time
	s := sim.NewScheduler()
	s.Spawn("long", 0, func(th *sim.Thread) {
		if _, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.Compute(21_000_000) // ~10 ms
		}, Options{}); err != nil {
			t.Errorf("long pushdown: %v", err)
		}
	})
	s.Spawn("A", 10*sim.Microsecond, func(th *sim.Thread) {
		rt.Policy.Deadline = sim.Millisecond // read at entry, as B's reset is
		_, errA = rt.Pushdown(th, func(env *ddc.Env) {}, Options{})
		doneA = th.Now()
	})
	s.Spawn("B", 2*sim.Millisecond, func(th *sim.Thread) {
		rt.Policy.Deadline = 0
		_, errB = rt.Pushdown(th, func(env *ddc.Env) {}, Options{})
	})
	s.Run()
	if !errors.Is(errA, ErrDeadlineExceeded) || doneA > 2*sim.Millisecond {
		t.Fatalf("A: err = %v at %v, want ErrDeadlineExceeded at its 1 ms budget", errA, doneA)
	}
	if errB != nil {
		t.Fatalf("B: err = %v, want a pushdown after the long call", errB)
	}
}

// A queued request is cancelled at its deadline, before anything later
// happens: t0 holds the only context to 100 µs, t1 queues at 0 with a 5 µs
// deadline, and t1's acquire must return ErrDeadlineExceeded at 5 µs, ahead
// of t2's event at 50 µs and of t0's release.
func TestQueuedDeadlineCancelsOnTime(t *testing.T) {
	_, rt := testProc(16)
	var order []string
	s := sim.NewScheduler()
	s.Spawn("t0", 0, func(th *sim.Thread) {
		if err := rt.acquire(th, 0); err != nil {
			t.Errorf("t0 acquire: %v", err)
		}
		th.Advance(100 * sim.Microsecond)
		order = append(order, fmt.Sprintf("t0 released at %v", th.Now()))
		rt.release(th)
	})
	s.Spawn("t1", 0, func(th *sim.Thread) {
		err := rt.acquire(th, 5*sim.Microsecond)
		order = append(order, fmt.Sprintf("t1 %v at %v", err, th.Now()))
		if err == nil {
			rt.release(th)
		}
	})
	s.Spawn("t2", 0, func(th *sim.Thread) {
		th.Advance(50 * sim.Microsecond)
		order = append(order, fmt.Sprintf("t2 at %v", th.Now()))
	})
	s.Run()
	want := []string{
		fmt.Sprintf("t1 %v at %v", ErrDeadlineExceeded, 5*sim.Microsecond),
		fmt.Sprintf("t2 at %v", 50*sim.Microsecond),
		fmt.Sprintf("t0 released at %v", 100*sim.Microsecond),
	}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
	if len(rt.queue) != 0 || rt.running != 0 {
		t.Fatalf("after the run: %d queued, %d running, want 0 and 0", len(rt.queue), rt.running)
	}
}

// A call that blows its budget mid-execution aborts, rolls its partial
// writes back, and leaves the data untouched.
func TestDeadlineExpiresMidExecutionRollsBack(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("t")
	a := fillVecPages(p, th)

	rt.Policy.Deadline = 100 * sim.Microsecond
	_, err := rt.Pushdown(th, incVecPages(a), Options{})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	rs := rt.Stats()
	if rs.RolledBackPages == 0 {
		t.Fatal("RolledBackPages = 0, want > 0 (writes happened before the budget expired)")
	}
	if rs.Rollbacks != 1 || rs.DeadlineAborts != 1 {
		t.Fatalf("Rollbacks=%d DeadlineAborts=%d, want 1 and 1", rs.Rollbacks, rs.DeadlineAborts)
	}
	env := p.NewEnv(th)
	for i := 0; i < vecPages; i++ {
		if got := env.ReadI64(a + mem.Addr(i)*mem.PageSize); got != int64(i) {
			t.Fatalf("slot %d = %d, want %d (partial writes survived the abort)", i, got, i)
		}
	}
}

// A write quorum lost mid-execution — the third abort kind, next to the
// mid-crash and the deadline — rolls the call's writes back before
// ErrQuorumLost is reported. The pool has four shards, three replicas and
// W=2; once fn has dirtied half the vector it pins the compute node's links
// to shards 2 and 3 down, so pages whose replica set holds both fall below
// quorum at their next access.
func TestQuorumLostMidExecutionRollsBack(t *testing.T) {
	cfg := ddc.BaseDDC(16 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
	m := ddc.MustMachine(cfg)
	plan := fault.NewPlan(fault.Profile{Name: "part"}, 0)
	m.AttachFault(plan)
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	th := sim.NewThread("t")
	a := fillVecPages(p, th)

	first, last := mem.PageOf(a), mem.PageOf(a+vecPages*mem.PageSize-1)
	before := make(map[mem.PageID][]byte)
	for pg := first; pg <= last; pg++ {
		before[pg] = p.Space.SnapshotPageInto(pg, nil)
	}
	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		for i := 0; i < vecPages; i++ {
			if i == vecPages/2 {
				down := fault.Window{Down: env.T.Now(), Up: env.T.Now() + sim.Second}
				plan.Pin(fault.Link(fault.EndpointCompute, 2), down)
				plan.Pin(fault.Link(fault.EndpointCompute, 3), down)
			}
			addr := a + mem.Addr(i)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}, Options{})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
	rs := rt.Stats()
	if rs.RolledBackPages < vecPages/2 {
		t.Fatalf("RolledBackPages = %d, want at least the %d pages dirtied before the partition", rs.RolledBackPages, vecPages/2)
	}
	if rs.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", rs.Rollbacks)
	}
	for pg := first; pg <= last; pg++ {
		if got := p.Space.SnapshotPageInto(pg, nil); !bytes.Equal(got, before[pg]) {
			t.Fatalf("page %d differs from its pre-call bytes (rollback incomplete)", pg)
		}
	}
}

// The circuit breaker walks its full cycle: consecutive failures open it,
// open calls short-circuit to local execution, the cooldown admits one
// half-open probe, and a successful probe closes it.
func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	p, rt := testProc(16)
	ring := trace.New(1024)
	p.M.AttachTrace(ring)
	rt.Policy = Policy{BreakerThreshold: 2, BreakerCooldown: 300 * sim.Microsecond}
	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	var out int64

	outage := pinPoolDown(p.M)
	for i := 0; i < 2; i++ {
		if _, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, 64, &out), Options{}); err != nil || ran {
			t.Fatalf("call %d: ran=%v err=%v, want local fallback", i, ran, err)
		}
	}
	rs := rt.Stats()
	if rs.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1 after two consecutive failures", rs.BreakerOpens)
	}

	// Open: the next call must not even attempt a pushdown.
	calls := rt.Stats().Calls
	if _, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, 64, &out), Options{}); err != nil || ran {
		t.Fatalf("short-circuit call: ran=%v err=%v", ran, err)
	}
	if rt.Stats().Calls != calls {
		t.Fatal("an open breaker still attempted a pushdown")
	}
	if rt.Stats().BreakerShortCircuits != 1 {
		t.Fatalf("BreakerShortCircuits = %d, want 1", rt.Stats().BreakerShortCircuits)
	}

	// Cooldown elapses and the pool recovers: the half-open probe succeeds
	// and closes the breaker.
	th.Advance(400 * sim.Microsecond)
	outage.Pin(fault.Pool())
	if _, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, 64, &out), Options{}); err != nil || !ran {
		t.Fatalf("probe call: ran=%v err=%v, want a successful pushdown", ran, err)
	}
	rs = rt.Stats()
	if rs.BreakerHalfOpens != 1 || rs.BreakerCloses != 1 {
		t.Fatalf("BreakerHalfOpens=%d BreakerCloses=%d, want 1 and 1", rs.BreakerHalfOpens, rs.BreakerCloses)
	}
	for _, k := range []trace.Kind{trace.KindBreakerOpen, trace.KindBreakerHalfOpen, trace.KindBreakerClose} {
		if n := countKind(ring, k); n != 1 {
			t.Fatalf("%v events = %d, want 1", k, n)
		}
	}
	if out != 64*63/2 {
		t.Fatalf("sum = %d, want %d", out, 64*63/2)
	}
}

// A failed half-open probe re-opens the breaker immediately.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	p, rt := testProc(16)
	rt.Policy = Policy{BreakerThreshold: 1, BreakerCooldown: 100 * sim.Microsecond}
	th := sim.NewThread("t")
	a := fillVec(p, th, 8)
	var out int64

	pinPoolDown(p.M)
	rt.PushdownWithPolicy(th, sumFunc(a, 8, &out), Options{}) // opens
	th.Advance(200 * sim.Microsecond)
	rt.PushdownWithPolicy(th, sumFunc(a, 8, &out), Options{}) // probe fails → reopen
	rs := rt.Stats()
	if rs.BreakerOpens != 2 || rs.BreakerHalfOpens != 1 || rs.BreakerCloses != 0 {
		t.Fatalf("opens=%d half=%d closes=%d, want 2/1/0", rs.BreakerOpens, rs.BreakerHalfOpens, rs.BreakerCloses)
	}
}

// A half-open probe whose function panics closes the breaker: the pool ran
// fn, so no retry undoes the error, and a breaker left half-open would
// short-circuit every later call.
func TestBreakerClosesOnProbeRemoteError(t *testing.T) {
	p, rt := testProc(16)
	rt.Policy = Policy{BreakerThreshold: 1, BreakerCooldown: 100 * sim.Microsecond}
	th := sim.NewThread("t")
	a := fillVec(p, th, 8)
	var out int64

	outage := pinPoolDown(p.M)
	rt.PushdownWithPolicy(th, sumFunc(a, 8, &out), Options{}) // opens
	th.Advance(200 * sim.Microsecond)
	outage.Pin(fault.Pool())
	var remote *RemoteError
	if _, ran, err := rt.PushdownWithPolicy(th, func(*ddc.Env) { panic("probe") }, Options{}); !ran || !errors.As(err, &remote) {
		t.Fatalf("probe: ran=%v err=%v, want the pool's RemoteError", ran, err)
	}
	if rs := rt.Stats(); rs.BreakerHalfOpens != 1 || rs.BreakerCloses != 1 {
		t.Fatalf("half=%d closes=%d, want 1/1", rs.BreakerHalfOpens, rs.BreakerCloses)
	}
	if _, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, 8, &out), Options{}); err != nil || !ran {
		t.Fatalf("after the probe: ran=%v err=%v, want a pushdown through the closed breaker", ran, err)
	}
}

package core

import (
	"errors"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Boundary-condition tests for outage windows, pinned to exact virtual-time
// instants with Plan.Pin. Windows are half-open [Down, Up): the target is
// down at Down, and back at exactly Up — whichever target it is. The paging
// cases run over every way a page operation can find what it needs
// unreachable: the whole controller down (WaitPoolUp), or — on a two-shard
// unreplicated pool — the page's shard crashed or either direction of its
// compute link partitioned (AccessPage has no replica to fail over to).

// windowPlan returns a plan that injects nothing but the given windows on tg.
func windowPlan(tg fault.Target, ws ...fault.Window) *fault.Plan {
	plan := fault.NewPlan(fault.Profile{Name: "windows"}, 0)
	plan.Pin(tg, ws...)
	return plan
}

// forever ends a window that outlasts any test.
const forever = sim.Time(1) << 60

// pinPoolDown attaches a plan holding m's memory pool down from time zero
// until it is re-pinned: plan.Pin(fault.Pool()) brings the pool back for good.
func pinPoolDown(m *ddc.Machine) *fault.Plan {
	plan := windowPlan(fault.Pool(), fault.Window{Up: forever})
	m.AttachFault(plan)
	return plan
}

// heartbeatUp is one heartbeat observation at the instant at.
func heartbeatUp(rt *Runtime, at sim.Time) bool {
	th := sim.NewThread("heartbeat")
	th.AdvanceTo(at)
	return !rt.observeHeartbeat(th)
}

// outageCases: the target that goes down, the paging operation that needs
// it (reporting whether it stalled), and the machine's stall tally for it.
var outageCases = []struct {
	name   string
	tg     fault.Target
	page   func(m *ddc.Machine, th *sim.Thread) bool
	stalls func(m *ddc.Machine) int64
}{
	{"pool", fault.Pool(),
		func(m *ddc.Machine, th *sim.Thread) bool { return m.WaitPoolUp(th) },
		func(m *ddc.Machine) int64 { return m.PoolStalls }},
	{"shard 1", fault.Shard(1), accessShard1, shard1Stalls},
	{"link compute→1", fault.Link(fault.EndpointCompute, 1), accessShard1, shard1Stalls},
	{"link 1→compute", fault.Link(1, fault.EndpointCompute), accessShard1, shard1Stalls},
}

// accessShard1 touches a page whose only copy lives on shard 1.
func accessShard1(m *ddc.Machine, th *sim.Thread) bool {
	before := m.ShardStats[1].Stalls
	if served := m.AccessPage(th, 1, false); served != 1 {
		panic("page 1 of a two-shard pool was not served by shard 1")
	}
	return m.ShardStats[1].Stalls != before
}

func shard1Stalls(m *ddc.Machine) int64 { return m.ShardStats[1].Stalls }

// outageMachine is a two-shard unreplicated pool with the windows pinned on tg.
func outageMachine(tg fault.Target, ws ...fault.Window) (*ddc.Machine, *fault.Plan) {
	cfg := ddc.BaseDDC(64 * mem.PageSize)
	cfg.PoolShards = 2
	m := ddc.MustMachine(cfg)
	plan := windowPlan(tg, ws...)
	m.AttachFault(plan)
	return m, plan
}

// A paging stall that waits out an outage wakes at exactly the window's Up
// instant, and the plan reports the target up at that same instant — the
// wake-up never observes a still-down target.
func TestPoolWindowEndsExactlyAtWakeup(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 200 * sim.Microsecond
	for _, oc := range outageCases {
		m, plan := outageMachine(oc.tg, fault.Window{Down: down, Up: up})
		th := sim.NewThread("t")
		th.AdvanceTo(150 * sim.Microsecond)
		if !oc.page(m, th) {
			t.Fatalf("%s: paging inside the window reported no stall", oc.name)
		}
		if th.Now() != up {
			t.Fatalf("%s: woke at %v, want exactly %v", oc.name, th.Now(), up)
		}
		if _, stillDown := plan.DownAt(oc.tg, th.Now()); stillDown {
			t.Fatalf("%s: DownAt(Up) reports down: the wake-up instant must observe it up", oc.name)
		}
		if got := oc.stalls(m); got != 1 {
			t.Fatalf("%s: stalls = %d, want 1", oc.name, got)
		}
		// A second operation at exactly Up is a no-op.
		if oc.page(m, th) || th.Now() != up {
			t.Fatalf("%s: paging at the Up instant stalled (now %v)", oc.name, th.Now())
		}
	}
}

// The heartbeat flips exactly at the window edges: down at Down, down at
// Up-1ns, up at exactly Up.
func TestHeartbeatEdgesAtWindowBoundaries(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 200 * sim.Microsecond
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	m.AttachFault(windowPlan(fault.Pool(), fault.Window{Down: down, Up: up}))
	rt := NewRuntime(m.NewProcess(), 1)

	for _, tc := range []struct {
		at sim.Time
		up bool
	}{
		{down - 1, true},
		{down, false},
		{up - 1, false},
		{up, true},
	} {
		if got := heartbeatUp(rt, tc.at); got != tc.up {
			t.Fatalf("heartbeat at %v = %v, want %v", tc.at, got, tc.up)
		}
	}
}

// A pushdown issued mid-outage fails, the policy waits for the scheduled
// restart, and the retry lands at exactly the recovery instant and
// succeeds. The trace carries exactly one pool-crash and one pool-recover
// edge, the latter stamped at Up.
func TestRetryAtExactRecoveryInstant(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 300 * sim.Microsecond
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	p.M.AttachFault(windowPlan(fault.Pool(), fault.Window{Down: down, Up: up}))

	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	th.AdvanceTo(150 * sim.Microsecond)
	var out int64
	_, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, 64, &out), Options{})
	if err != nil || !ran {
		t.Fatalf("policy: ran=%v err=%v, want a successful retry after the restart", ran, err)
	}
	if out != 64*63/2 {
		t.Fatalf("sum = %d, want %d", out, 64*63/2)
	}
	if rs := rt.Stats(); rs.Retries != 1 || rs.PoolDownObserved == 0 {
		t.Fatalf("Retries=%d PoolDownObserved=%d, want 1 retry after observing the outage",
			rs.Retries, rs.PoolDownObserved)
	}
	var crashes, recovers int
	var recoverAtTs sim.Time
	for _, e := range ring.Events() {
		switch e.Kind {
		case trace.KindPoolCrash:
			crashes++
		case trace.KindPoolRecover:
			recovers++
			recoverAtTs = e.At
		}
	}
	if crashes != 1 || recovers != 1 {
		t.Fatalf("pool-crash=%d pool-recover=%d, want exactly one of each", crashes, recovers)
	}
	if recoverAtTs != up {
		t.Fatalf("pool-recover stamped at %v, want exactly %v (the retry instant)", recoverAtTs, up)
	}
}

// A bare pushdown issued at exactly the recovery instant succeeds without
// ever observing the outage — no pool-crash edge, no down observation.
func TestPushdownAtExactRecoveryInstant(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 300 * sim.Microsecond
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	p.M.AttachFault(windowPlan(fault.Pool(), fault.Window{Down: down, Up: up}))

	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	th.AdvanceTo(up)
	var out int64
	if _, err := rt.Pushdown(th, sumFunc(a, 64, &out), Options{}); err != nil {
		t.Fatalf("pushdown at the recovery instant: %v", err)
	}
	if n := countKind(ring, trace.KindPoolCrash); n != 0 {
		t.Fatalf("pool-crash events = %d, want 0 (the outage was never observed)", n)
	}
	if rs := rt.Stats(); rs.PoolDownObserved != 0 {
		t.Fatalf("PoolDownObserved = %d, want 0", rs.PoolDownObserved)
	}
	// One nanosecond earlier the same call fails.
	p2, rt2 := testProc(16)
	p2.M.AttachFault(windowPlan(fault.Pool(), fault.Window{Down: down, Up: up}))
	th2 := sim.NewThread("t")
	a2 := fillVec(p2, th2, 64)
	th2.AdvanceTo(up - 1)
	if _, err := rt2.Pushdown(th2, sumFunc(a2, 64, &out), Options{}); !errors.Is(err, ErrMemoryPoolDown) {
		t.Fatalf("pushdown 1ns before recovery: err = %v, want ErrMemoryPoolDown", err)
	}
}

// WaitPoolUp with no fault plan attached never stalls and never advances
// the clock.
func TestWaitPoolUpNilPlan(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	th := sim.NewThread("t")
	th.AdvanceTo(150 * sim.Microsecond)
	if m.WaitPoolUp(th) {
		t.Fatal("WaitPoolUp stalled with no fault plan")
	}
	if th.Now() != 150*sim.Microsecond {
		t.Fatalf("WaitPoolUp advanced the clock to %v with no fault plan", th.Now())
	}
	if m.PoolStalls != 0 {
		t.Fatalf("PoolStalls = %d, want 0", m.PoolStalls)
	}
}

// A query at exactly the window's Up instant observes the target up: no
// stall, no clock movement (half-open windows).
func TestWaitPoolUpAtExactUpBoundary(t *testing.T) {
	const down, up = 100 * sim.Microsecond, 200 * sim.Microsecond
	for _, oc := range outageCases {
		m, _ := outageMachine(oc.tg, fault.Window{Down: down, Up: up})
		th := sim.NewThread("t")
		th.AdvanceTo(up)
		if oc.page(m, th) {
			t.Fatalf("%s: paging stalled at exactly Up", oc.name)
		}
		if th.Now() != up || oc.stalls(m) != 0 {
			t.Fatalf("%s: now=%v stalls=%d, want %v and 0", oc.name, th.Now(), oc.stalls(m), up)
		}
	}
}

// Back-to-back windows [100,200) + [200,300): a waiter entering the first
// window would wake at its Up instant to find the second window already
// begun, so one paging operation rides both windows through to 300µs and
// counts as a single stall.
func TestWaitPoolUpAdjacentWindows(t *testing.T) {
	const d1, u1 = 100 * sim.Microsecond, 200 * sim.Microsecond
	const d2, u2 = 200 * sim.Microsecond, 300 * sim.Microsecond
	for _, oc := range outageCases {
		m, _ := outageMachine(oc.tg, fault.Window{Down: d1, Up: u1}, fault.Window{Down: d2, Up: u2})
		th := sim.NewThread("t")
		th.AdvanceTo(150 * sim.Microsecond)
		if !oc.page(m, th) {
			t.Fatalf("%s: paging inside the first window reported no stall", oc.name)
		}
		if th.Now() != u2 {
			t.Fatalf("%s: woke at %v, want %v (the second window's Up)", oc.name, th.Now(), u2)
		}
		if got := oc.stalls(m); got != 1 {
			t.Fatalf("%s: stalls = %d, want 1 (one stall spanning both windows)", oc.name, got)
		}
	}
}

// A zero-length window (Down == Up) is inert: no instant observes the pool
// down, paging never stalls, pushdowns succeed, and no crash/recover edges
// appear — but the plan still counts the window as scheduled.
func TestZeroLengthWindowIsInert(t *testing.T) {
	const at = 100 * sim.Microsecond
	for _, oc := range outageCases {
		m, plan := outageMachine(oc.tg, fault.Window{Down: at, Up: at})
		th := sim.NewThread("t")
		for _, ts := range []sim.Time{at - 1, at, at + 1} {
			if _, isDown := plan.DownAt(oc.tg, ts); isDown {
				t.Fatalf("%s: DownAt(%v) reports down for a zero-length window", oc.name, ts)
			}
			th.AdvanceTo(ts)
			if oc.page(m, th) || th.Now() != ts {
				t.Fatalf("%s: paging stalled across a zero-length window (now %v)", oc.name, th.Now())
			}
		}
	}

	plan := windowPlan(fault.Pool(), fault.Window{Down: at, Up: at})
	p, rt := testProc(16)
	ring := trace.New(256)
	p.M.AttachTrace(ring)
	p.M.AttachFault(plan)

	th := sim.NewThread("t")
	a := fillVec(p, th, 64)
	th.AdvanceTo(at)
	if p.M.WaitPoolUp(th) || th.Now() != at {
		t.Fatalf("paging stalled across a zero-length window (now %v)", th.Now())
	}
	var out int64
	if _, err := rt.Pushdown(th, sumFunc(a, 64, &out), Options{}); err != nil {
		t.Fatalf("pushdown across a zero-length window: %v", err)
	}
	if out != 64*63/2 {
		t.Fatalf("sum = %d, want %d", out, 64*63/2)
	}
	if countKind(ring, trace.KindPoolCrash) != 0 || countKind(ring, trace.KindPoolRecover) != 0 {
		t.Fatal("zero-length window produced pool-crash/pool-recover trace edges")
	}
	if p.M.PoolStalls != 0 {
		t.Fatalf("PoolStalls = %d, want 0", p.M.PoolStalls)
	}
	if got := plan.Counters().PoolWindows; got != 1 {
		t.Fatalf("PoolWindows = %d, want 1 (scheduled, even though inert)", got)
	}
}

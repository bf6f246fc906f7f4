package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000µs"},
		{1500 * Nanosecond, "1.500µs"},
		{Millisecond, "1.000ms"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
		{-Millisecond, "-1.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromNs(1234.4) != 1234 {
		t.Errorf("FromNs rounding down failed: %d", FromNs(1234.4))
	}
	if FromNs(1234.6) != 1235 {
		t.Errorf("FromNs rounding up failed: %d", FromNs(1234.6))
	}
	if FromNs(-5) != 0 {
		t.Errorf("FromNs negative should clamp to 0")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Errorf("Micros() = %v", (3 * Microsecond).Micros())
	}
}

func TestStandaloneThread(t *testing.T) {
	th := NewThread("solo")
	if th.Now() != 0 {
		t.Fatal("fresh thread should start at 0")
	}
	th.Advance(5 * Microsecond)
	th.AdvanceNs(500)
	if th.Now() != 5*Microsecond+500 {
		t.Fatalf("Now() = %v", th.Now())
	}
	th.AdvanceTo(4 * Microsecond) // must not move backwards
	if th.Now() != 5*Microsecond+500 {
		t.Fatalf("AdvanceTo moved clock backwards: %v", th.Now())
	}
	th.AdvanceTo(10 * Microsecond)
	if th.Now() != 10*Microsecond {
		t.Fatalf("AdvanceTo(10µs) = %v", th.Now())
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewThread("x").Advance(-1)
}

func TestBlockOnStandalonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Block of standalone thread")
		}
	}()
	NewThread("x").Block()
}

func TestSchedulerMakespanIsMax(t *testing.T) {
	s := NewScheduler()
	s.Spawn("fast", 0, func(t *Thread) { t.Advance(1 * Millisecond) })
	s.Spawn("slow", 0, func(t *Thread) { t.Advance(7 * Millisecond) })
	if got := s.Run(); got != 7*Millisecond {
		t.Fatalf("makespan = %v, want 7ms", got)
	}
}

// TestSchedulerInterleaving verifies threads execute in virtual-time order:
// with a zero quantum, events recorded by two threads must appear in
// non-decreasing virtual-time order.
func TestSchedulerInterleaving(t *testing.T) {
	type ev struct {
		ts   Time
		name string
	}
	var log []ev
	s := NewScheduler()
	s.SetQuantum(0)
	for _, spec := range []struct {
		name string
		step Time
		n    int
	}{{"a", 3, 100}, {"b", 7, 50}} {
		spec := spec
		s.Spawn(spec.name, 0, func(th *Thread) {
			for i := 0; i < spec.n; i++ {
				th.Advance(spec.step)
				log = append(log, ev{th.Now(), spec.name})
			}
		})
	}
	s.Run()
	if len(log) != 150 {
		t.Fatalf("expected 150 events, got %d", len(log))
	}
	// With strict ordering, when a thread records an event its clock must
	// not be more than one step ahead of any other thread's clock at record
	// time; the simplest observable property: per-thread timestamps are
	// increasing and globally the sequence never jumps backwards by more
	// than the largest step.
	for i := 1; i < len(log); i++ {
		if log[i].ts+7 < log[i-1].ts {
			t.Fatalf("event %d at %v after event %d at %v: interleaving broken",
				i, log[i].ts, i-1, log[i-1].ts)
		}
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []Time {
		var out []Time
		s := NewScheduler()
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn("t", 0, func(th *Thread) {
				r := rand.New(rand.NewSource(int64(i)))
				for j := 0; j < 1000; j++ {
					th.Advance(Time(r.Intn(100) + 1))
				}
				out = append(out, th.Now())
			})
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic schedule: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	s := NewScheduler()
	var waiter *Thread
	order := []string{}
	waiter = s.Spawn("waiter", 0, func(th *Thread) {
		order = append(order, "wait-start")
		th.Block()
		order = append(order, "woken")
		if th.Now() != 5*Millisecond {
			t.Errorf("woken at %v, want 5ms", th.Now())
		}
	})
	s.Spawn("waker", 0, func(th *Thread) {
		th.Advance(5 * Millisecond)
		order = append(order, "wake")
		waiter.Unblock(th.Now())
	})
	s.Run()
	want := []string{"wait-start", "wake", "woken"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := NewScheduler()
	s.Spawn("stuck", 0, func(th *Thread) { th.Block() })
	s.Run()
}

func TestSpawnDuringRun(t *testing.T) {
	s := NewScheduler()
	var childEnd Time
	s.Spawn("parent", 0, func(th *Thread) {
		th.Advance(Millisecond)
		s.Spawn("child", th.Now(), func(c *Thread) {
			c.Advance(2 * Millisecond)
			childEnd = c.Now()
		})
		th.Advance(Millisecond)
	})
	end := s.Run()
	if childEnd != 3*Millisecond {
		t.Fatalf("child ended at %v, want 3ms", childEnd)
	}
	if end != 3*Millisecond {
		t.Fatalf("makespan %v, want 3ms", end)
	}
}

func TestSpawnedThreadsOverlap(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 8; i++ {
		i := i
		s.Spawn("w", 0, func(th *Thread) { th.Advance(Time(i+1) * Microsecond) })
	}
	if end := s.Run(); end != 8*Microsecond {
		t.Fatalf("makespan = %v, want 8µs", end)
	}
}

// Property: makespan equals the maximum of per-thread totals, for arbitrary
// per-thread step sequences.
func TestMakespanProperty(t *testing.T) {
	f := func(steps [][]uint16) bool {
		if len(steps) == 0 || len(steps) > 8 {
			return true
		}
		s := NewScheduler()
		var max Time
		for _, seq := range steps {
			seq := seq
			var total Time
			for _, d := range seq {
				total += Time(d)
			}
			if total > max {
				max = total
			}
			s.Spawn("p", 0, func(th *Thread) {
				for _, d := range seq {
					th.Advance(Time(d))
				}
			})
		}
		return s.Run() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Slack must be exactly the largest advance after which the yield check does
// not park the thread: Advance(Slack()) makes no handoff and one nanosecond
// more does, wherever the thread stands relative to the ready heap's top and
// the window's horizon.
func TestSlackIsTheLargestAdvanceThatDoesNotYield(t *testing.T) {
	if got := NewThread("alone").Slack(); got != horizonMax {
		t.Fatalf("standalone thread: slack %v, want unbounded", got)
	}
	// probe advances by the slack, then by one more nanosecond, and returns
	// the slack and the handoffs each advance caused.
	probe := func(s *Scheduler, th *Thread) (slack Time, within, beyond int64) {
		slack = th.Slack()
		before := s.Switches()
		th.Advance(slack)
		within = s.Switches() - before
		th.Advance(1)
		return slack, within, s.Switches() - before - within
	}
	for _, tc := range []struct {
		name        string
		lead, other Time // the probing thread's clock when it probes, and the other thread's start
		want        Time
	}{
		{"level with the heap top", 0, 0, DefaultQuantum},
		{"behind the heap top", 0, 5 * Microsecond, 5*Microsecond + DefaultQuantum},
		{"ahead of the heap top", 1500, 0, DefaultQuantum - 1500},
		{"a quantum ahead", DefaultQuantum, 0, 0},
	} {
		s := NewScheduler()
		var slack Time
		var within, beyond int64
		s.Spawn("probe", 0, func(th *Thread) {
			th.Advance(tc.lead)
			slack, within, beyond = probe(s, th)
		})
		s.Spawn("other", tc.other, func(th *Thread) { th.Advance(Second) })
		s.Run()
		if slack != tc.want || within != 0 || beyond == 0 {
			t.Errorf("%s: slack %v (want %v), %d handoffs within it, %d one past it", tc.name, slack, tc.want, within, beyond)
		}
	}

	// The only runnable thread of a single-domain run never parks.
	s := NewScheduler()
	s.Spawn("lone", 0, func(th *Thread) {
		th.Advance(7)
		if got := th.Slack(); got != horizonMax-7-1 {
			t.Errorf("lone runnable thread: slack %v, want the open window's", got)
		}
	})
	s.Run()

	// Under windows the horizon binds: the thread may reach the last
	// nanosecond below it.
	s = NewScheduler()
	s.SetLookahead(lookL)
	s.SetWorkers(1)
	var slack Time
	var within, beyond int64
	s.NewDomain("a").Spawn("probe", 0, func(th *Thread) {
		th.Advance(3)
		slack, within, beyond = probe(s, th)
	})
	s.NewDomain("b").Spawn("other", 0, func(th *Thread) { th.Advance(Second) })
	s.Run()
	if slack != lookL-3-1 || within != 0 || beyond == 0 {
		t.Errorf("at the window horizon: slack %v (want %v), %d handoffs within it, %d one past it", slack, lookL-3-1, within, beyond)
	}
}

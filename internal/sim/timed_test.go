package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Timed blocks: BlockUntil's wake time against an Unblock or Post that
// comes first, a wake that is the domain's next event, and deadlock
// reporting.

func TestBlockUntilWakesAtItsTime(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.Spawn("timed", 0, func(th *Thread) {
		ok := th.BlockUntil(10 * Microsecond)
		order = append(order, fmt.Sprintf("timed %v at %v", ok, th.Now()))
	})
	s.Spawn("runner", 0, func(th *Thread) {
		th.Advance(30 * Microsecond)
		order = append(order, fmt.Sprintf("runner at %v", th.Now()))
	})
	if end := s.Run(); end != 30*Microsecond {
		t.Fatalf("makespan %v, want 30µs", end)
	}
	want := []string{"timed false at 10.000µs", "runner at 30.000µs"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
}

func TestUnblockBeforeWakeTimeWinsOnce(t *testing.T) {
	s := NewScheduler()
	var ok bool
	var at, again Time
	var timed *Thread
	timed = s.Spawn("timed", 0, func(th *Thread) {
		ok = th.BlockUntil(50 * Microsecond)
		at = th.Now()
		// A wake left behind in the heap at 50 µs would resume this Block.
		th.Block()
		again = th.Now()
	})
	s.Spawn("waker", 0, func(th *Thread) {
		th.Advance(10 * Microsecond)
		timed.Unblock(th.Now())
		th.Advance(70 * Microsecond)
		timed.Unblock(th.Now())
	})
	s.Run()
	if !ok || at != 10*Microsecond {
		t.Fatalf("BlockUntil = %v at %v, want true at the 10µs unblock", ok, at)
	}
	if again != 80*Microsecond {
		t.Fatalf("second Block resumed at %v, want the 80µs unblock", again)
	}
}

func TestBlockUntilOwnWakeIsNextEvent(t *testing.T) {
	// The timed thread's wake is the heap root below the horizon, so it
	// resumes itself without handing the baton on: the only handoffs are the
	// runner's first yield and the two terminal parks.
	s := NewScheduler()
	var ok bool
	var at Time
	s.Spawn("timed", 0, func(th *Thread) {
		ok = th.BlockUntil(10 * Microsecond)
		at = th.Now()
	})
	s.Spawn("runner", 100*Microsecond, func(th *Thread) {})
	s.Run()
	if ok || at != 10*Microsecond {
		t.Fatalf("BlockUntil = %v at %v, want false at 10µs", ok, at)
	}
	if got := s.Switches(); got != 2 {
		t.Fatalf("got %d baton handoffs, want 2 (a wake that is the next event must not hand off)", got)
	}
}

func TestPostReachesTimedBlockAcrossDomains(t *testing.T) {
	// a blocks until 100 µs and b's post arrives at 25 µs, first: true at
	// 25 µs. a then blocks until 50 µs while b's second post, sent at 15 µs,
	// arrives at 60 µs: the wake comes first (false at 50 µs) and the post
	// waits for a's next Block. Two compute-only domains keep several
	// domains active per window.
	type outcome struct {
		Oks    []bool
		Clocks []Time
		End    Time
	}
	run := func(workers int) outcome {
		s := NewScheduler()
		s.SetLookahead(lookL)
		s.SetWorkers(workers)
		var o outcome
		var a *Thread
		a = s.NewDomain("a").Spawn("a", 0, func(th *Thread) {
			o.Oks = append(o.Oks, th.BlockUntil(100*Microsecond))
			o.Clocks = append(o.Clocks, th.Now())
			o.Oks = append(o.Oks, th.BlockUntil(50*Microsecond))
			o.Clocks = append(o.Clocks, th.Now())
			th.Block()
			o.Clocks = append(o.Clocks, th.Now())
		})
		s.NewDomain("b").Spawn("b", 0, func(th *Thread) {
			th.Advance(15 * Microsecond)
			th.Post(a, 25*Microsecond)
			th.Post(a, 60*Microsecond)
		})
		for i := 0; i < 2; i++ {
			s.NewDomain(fmt.Sprintf("c%d", i)).Spawn(fmt.Sprintf("c%d", i), 0, func(th *Thread) {
				for k := 0; k < 10; k++ {
					th.Advance(7 * Microsecond)
				}
			})
		}
		o.End = s.Run()
		return o
	}
	want := outcome{
		Oks:    []bool{true, false},
		Clocks: []Time{25 * Microsecond, 50 * Microsecond, 60 * Microsecond},
		End:    70 * Microsecond,
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}
}

func TestDeadlockListsOnlyUntimedBlocks(t *testing.T) {
	var ok bool
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "stuck") || strings.Contains(msg, "timed") {
			t.Fatalf("deadlock panic %q, want it to list stuck and not timed", msg)
		}
		if ok {
			t.Fatal("the timed block must have woken at its wake time")
		}
	}()
	s := NewScheduler()
	s.Spawn("stuck", 0, func(th *Thread) { th.Block() })
	s.Spawn("timed", 0, func(th *Thread) { ok = th.BlockUntil(10 * Microsecond) })
	s.Run()
}

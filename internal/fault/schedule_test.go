package fault

import (
	"reflect"
	"slices"
	"testing"

	"teleport/internal/sim"
)

// Every behaviour of the one outage schedule is asserted once, over every
// kind of target: the whole controller, a shard, a compute↔shard link in
// each direction, a shard↔shard link across the split-brain cut and one on
// the same side of it. (These tables replace the per-family shard_, partition_
// and window_test files; a few test names still say "WindowPlan" or
// "WindowsThrough" because the floor list pins them.)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

type targetCase struct {
	name    string
	tg      Target
	sibling Target                 // a different target of the same kind
	count   func(c Counters) int64 // the kind's window counter
}

func poolCount(c Counters) int64  { return c.PoolWindows }
func shardCount(c Counters) int64 { return c.ShardWindows }
func linkCount(c Counters) int64  { return c.LinkWindows }

var targetCases = []targetCase{
	{"pool", Pool(), Target{}, poolCount},
	{"shard 1", Shard(1), Shard(0), shardCount},
	{"link compute→0", Link(EndpointCompute, 0), Link(0, EndpointCompute), linkCount},
	{"link 0→compute", Link(0, EndpointCompute), Link(EndpointCompute, 0), linkCount},
	{"link 0→1 (crosses the cut)", Link(0, 1), Link(1, 0), linkCount},
	{"link 0→2 (same side)", Link(0, 2), Link(2, 0), linkCount},
}

// everyKind enables all four schedule families at once.
func everyKind() Profile {
	return Profile{
		Name:       "every-kind",
		PoolMeanUp: 5 * sim.Millisecond, PoolMeanDown: 500 * sim.Microsecond,
		ShardMeanUp: sim.Millisecond, ShardMeanDown: 100 * sim.Microsecond,
		LinkMeanUp: 1500 * sim.Microsecond, LinkMeanDown: 100 * sim.Microsecond,
		SplitMeanUp: 2 * sim.Millisecond, SplitMeanDown: 120 * sim.Microsecond,
	}
}

type probe struct {
	rec  sim.Time
	down bool
}

func probeAt(p *Plan, tg Target, at sim.Time) probe {
	rec, down := p.DownAt(tg, at)
	return probe{rec, down}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// A schedule is a pure function of (seed, target), no matter in what order
// virtual times are probed — threads with different clocks interleave their
// queries arbitrarily.
func TestCrashScheduleQueryOrderIndependent(t *testing.T) {
	times := []sim.Time{
		500 * sim.Millisecond, sim.Millisecond, 90 * sim.Millisecond,
		3 * sim.Millisecond, 200 * sim.Millisecond, 40 * sim.Millisecond,
	}
	rev := slices.Clone(times)
	slices.Reverse(rev)
	for _, tc := range targetCases {
		run := func(order []sim.Time) map[sim.Time]probe {
			p := NewPlan(everyKind(), 11)
			out := map[sim.Time]probe{}
			for _, at := range order {
				out[at] = probeAt(p, tc.tg, at)
			}
			return out
		}
		fwd, bwd := run(times), run(rev)
		for at, o := range fwd {
			if bwd[at] != o {
				t.Fatalf("%s: schedule differs at %v by probe order: %v vs %v", tc.name, at, o, bwd[at])
			}
		}
	}
}

// Same seed, same schedule — regardless of the order targets are first
// queried (created) in, or how many others were queried in between.
func TestScheduleCreationOrderIndependent(t *testing.T) {
	draw := func(order []int) map[int][]probe {
		p := NewPlan(everyKind(), 42)
		out := map[int][]probe{}
		for step := 0; step < 200; step++ {
			at := sim.Time(step) * 50 * sim.Microsecond
			for _, i := range order {
				out[i] = append(out[i], probeAt(p, targetCases[i].tg, at))
			}
		}
		return out
	}
	a := draw([]int{0, 1, 2, 3, 4, 5})
	b := draw([]int{5, 3, 1, 0, 4, 2})
	for i, tc := range targetCases {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("%s: probes differ across creation orders", tc.name)
		}
	}
}

// Every outage reports a recovery strictly in the future, after which the
// target is up again, and generated windows are counted.
func TestCrashWindowsAlternateAndRecover(t *testing.T) {
	for _, tc := range targetCases {
		p := NewPlan(everyKind(), 5)
		found := false
		for at := sim.Time(0); at < 200*sim.Millisecond; at += 20 * sim.Microsecond {
			rec, down := p.DownAt(tc.tg, at)
			if !down {
				continue
			}
			found = true
			if rec <= at {
				t.Fatalf("%s: recovery %v not after outage observation %v", tc.name, rec, at)
			}
			// One schedule's windows never touch (uptime ≥ ½·mean-up), but a
			// link's own outage can abut a split window; UpAt sees through it.
			if up := p.UpAt(at, tc.tg); up < rec {
				t.Fatalf("%s: UpAt(%v) = %v, before the reported recovery %v", tc.name, at, up, rec)
			} else if _, still := p.DownAt(tc.tg, up); still {
				t.Fatalf("%s: still down at UpAt's answer %v", tc.name, up)
			}
		}
		if !found {
			t.Fatalf("%s: no outage in 200ms of virtual time", tc.name)
		}
		if tc.count(p.Counters()) == 0 {
			t.Fatalf("%s: no windows counted", tc.name)
		}
	}
}

// Distinct targets draw distinct schedules (independent derived streams),
// including the two directions of one link.
func TestShardSchedulesIndependent(t *testing.T) {
	prof := everyKind()
	prof.SplitMeanUp = 0 // the split schedule is shared by design
	const horizon = 50 * sim.Millisecond
	for _, tc := range targetCases[1:] {
		p := NewPlan(prof, 7)
		w0, w1 := p.Windows(tc.tg, horizon), p.Windows(tc.sibling, horizon)
		if len(w0) == 0 || len(w1) == 0 {
			t.Fatalf("%s: expected windows on it and its sibling, got %d and %d", tc.name, len(w0), len(w1))
		}
		if reflect.DeepEqual(w0, w1) {
			t.Fatalf("%s and its sibling drew identical schedules", tc.name)
		}
	}
}

// Querying other targets never shifts a target's schedule: every stream is
// derived on a salt of its own, so existing profiles' draws are unshifted by
// enabling more kinds.
func TestShardDrawsDoNotShiftPoolSchedule(t *testing.T) {
	for i, tc := range targetCases {
		alone, mixed := NewPlan(everyKind(), 11), NewPlan(everyKind(), 11)
		for step := 0; step < 400; step++ {
			at := sim.Time(step) * 100 * sim.Microsecond
			for j, other := range targetCases {
				if j != i {
					mixed.DownAt(other.tg, at)
				}
			}
			if a, b := probeAt(alone, tc.tg, at), probeAt(mixed, tc.tg, at); a != b {
				t.Fatalf("%s: DownAt(%v) shifted by draws on other targets: %v vs %v", tc.name, at, a, b)
			}
		}
	}
}

// A kind the profile leaves off is never down, lists no windows and counts
// nothing; out-of-range constructor arguments make the never-down zero Target.
func TestDisabledKindsNeverDown(t *testing.T) {
	for _, tc := range targetCases {
		prof := everyKind()
		switch tc.tg.kind {
		case kindPool:
			prof.PoolMeanUp = 0
		case kindShard:
			prof.ShardMeanUp = 0
		case kindLink:
			prof.LinkMeanUp, prof.SplitMeanUp = 0, 0
		}
		p := NewPlan(prof, 1)
		for step := 0; step < 100; step++ {
			if _, down := p.DownAt(tc.tg, sim.Time(step)*sim.Millisecond); down {
				t.Fatalf("%s down with its kind disabled", tc.name)
			}
		}
		if ws := p.Windows(tc.tg, sim.Second); ws != nil {
			t.Fatalf("%s: windows %v with its kind disabled", tc.name, ws)
		}
		if got := tc.count(p.Counters()); got != 0 {
			t.Fatalf("%s: %d windows counted with its kind disabled", tc.name, got)
		}
		if p.lookup(tc.tg) != nil {
			t.Fatalf("%s: a disabled kind was given a schedule", tc.name)
		}
	}
	p := NewPlan(everyKind(), 1)
	for _, tg := range []Target{{}, Shard(-1), Link(1, 1), Link(-2, 0), Link(0, -2)} {
		if tg != (Target{}) {
			t.Fatalf("degenerate target %+v is not the zero Target", tg)
		}
		p.Pin(tg, Window{Down: 0, Up: sim.Second})
		if _, down := p.DownAt(tg, us(15)); down {
			t.Fatal("the zero Target reported down")
		}
	}
}

// Pin places exact half-open windows on one target without touching its
// sibling, counts them once, and a pinned schedule never extends.
func TestWindowPlanHalfOpenBoundaries(t *testing.T) {
	const d1, u1 = 10 * sim.Microsecond, 20 * sim.Microsecond
	const d2, u2 = 50 * sim.Microsecond, 60 * sim.Microsecond
	cases := []struct {
		at   sim.Time
		down bool
		rec  sim.Time
	}{
		{0, false, 0},
		{d1 - 1, false, 0},
		{d1, true, u1},
		{u1 - 1, true, u1},
		{u1, false, 0}, // half-open: up at exactly Up
		{d2, true, u2},
		{u2, false, 0},
		{u2 + sim.Second, false, 0}, // pinned schedule never extends
	}
	for _, tc := range targetCases {
		// Pinning overrides the randomised schedule of an enabled kind too.
		for _, prof := range []Profile{{Name: "t"}, everyKindButSplit()} {
			p := NewPlan(prof, 3)
			p.Pin(tc.tg, Window{Down: d1, Up: u1}, Window{Down: d2, Up: u2})
			for _, c := range cases {
				if rec, down := p.DownAt(tc.tg, c.at); down != c.down || rec != c.rec {
					t.Fatalf("%s (%s): DownAt(%v) = (%v, %v), want (%v, %v)", tc.name, prof.Name, c.at, rec, down, c.rec, c.down)
				}
			}
			if prof.Name != "t" {
				continue
			}
			if got := tc.count(p.Counters()); got != 2 {
				t.Fatalf("%s: window counter = %d, want 2", tc.name, got)
			}
			if _, down := p.DownAt(tc.sibling, d1); down {
				t.Fatalf("window pinned on %s leaked to its sibling", tc.name)
			}
		}
	}
}

func everyKindButSplit() Profile {
	prof := everyKind()
	prof.SplitMeanUp = 0
	return prof
}

// TestPinExactWindows: an empty pin silences a target the profile would take
// down, and leaves the rest of its kind randomised.
func TestPinExactWindows(t *testing.T) {
	for _, tc := range targetCases[1:] {
		p := NewPlan(everyKindButSplit(), 3)
		p.Pin(tc.tg)
		for at := sim.Time(0); at < 50*sim.Millisecond; at += 50 * sim.Microsecond {
			if _, down := p.DownAt(tc.tg, at); down {
				t.Fatalf("%s down at %v after an empty pin", tc.name, at)
			}
		}
		if len(p.Windows(tc.sibling, 50*sim.Millisecond)) == 0 {
			t.Fatalf("pinning %s silenced its sibling", tc.name)
		}
	}
}

// Adjacent windows are one continuous outage, zero-length windows are inert.
func TestLinkWindowsHalfOpenBoundaries(t *testing.T) {
	cases := []struct {
		at   sim.Time
		down bool
		rec  sim.Time
		up   sim.Time // UpAt's answer
	}{
		{0, false, 0, 0},
		{us(10) - 1, false, 0, us(10) - 1},
		{us(10), true, us(20), us(30)},
		{us(20) - 1, true, us(20), us(30)},
		{us(20), true, us(30), us(30)}, // adjacency: the second window covers Up of the first
		{us(30) - 1, true, us(30), us(30)},
		{us(30), false, 0, us(30)}, // half-open: up at exactly Up
		{us(40), false, 0, us(40)}, // zero-length window covers no instant
		{us(40) + 1, false, 0, us(40) + 1},
	}
	for _, tc := range targetCases {
		p := NewPlan(Profile{Name: "t"}, 0)
		p.Pin(tc.tg,
			Window{Down: us(10), Up: us(20)},
			Window{Down: us(20), Up: us(30)}, // exactly adjacent
			Window{Down: us(40), Up: us(40)}, // zero-length
		)
		for _, c := range cases {
			if rec, down := p.DownAt(tc.tg, c.at); down != c.down || rec != c.rec {
				t.Fatalf("%s: DownAt(%v) = (%v, %v), want (%v, %v)", tc.name, c.at, rec, down, c.rec, c.down)
			}
			if up := p.UpAt(c.at, tc.tg); up != c.up {
				t.Fatalf("%s: UpAt(%v) = %v, want %v", tc.name, c.at, up, c.up)
			}
		}
		// Directions (and sibling shards) are independent.
		if _, down := p.DownAt(tc.sibling, us(15)); down {
			t.Fatalf("pinning %s took its sibling down", tc.name)
		}
		if got := tc.count(p.Counters()); got != 3 {
			t.Fatalf("%s: window counter = %d, want 3", tc.name, got)
		}
	}
}

// UpAt over several targets is the first instant all are up: a heal that
// lands inside another target's window is re-checked.
func TestUpAtCombinesTargets(t *testing.T) {
	p := NewPlan(Profile{Name: "t"}, 0)
	p.Pin(Shard(0), Window{Down: us(10), Up: us(20)})
	p.Pin(Link(EndpointCompute, 0), Window{Down: us(15), Up: us(30)})
	p.Pin(Link(0, EndpointCompute), Window{Down: us(30), Up: us(35)}, Window{Down: us(50), Up: us(60)})
	path := []Target{Shard(0), Link(EndpointCompute, 0), Link(0, EndpointCompute)}
	for _, c := range []struct{ at, want sim.Time }{
		{0, 0}, {us(10), us(35)}, {us(25), us(35)}, {us(35), us(35)}, {us(49), us(49)}, {us(50), us(60)},
	} {
		if got := p.UpAt(c.at, path...); got != c.want {
			t.Fatalf("UpAt(%v, path) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := p.UpAt(us(12)); got != us(12) {
		t.Fatalf("UpAt with no targets = %v, want the query instant", got)
	}
}

// UpSpan's stretch starts where UpAt does and ends at the next non-empty
// window of any target — a split window for a link across the cut — and a
// Pin is counted, so a memo of the answer can tell it is stale.
func TestUpSpanEndsAtNextWindow(t *testing.T) {
	p := NewPlan(Profile{Name: "t"}, 0)
	p.Pin(Shard(1), Window{Down: us(10), Up: us(20)}, Window{Down: us(40), Up: us(40)}, Window{Down: us(70), Up: us(80)})
	p.Pin(Link(EndpointCompute, 1), Window{Down: us(15), Up: us(30)})
	p.Pin(Target{kind: kindSplit}, Window{Down: us(60), Up: us(65)})
	if got := p.Pins(); got != 3 {
		t.Fatalf("Pins() = %d after three pins, want 3", got)
	}
	path := []Target{Shard(1), Link(EndpointCompute, 1)}
	for _, c := range []struct{ at, from, to sim.Time }{
		{0, 0, us(10)},           // up until the shard's first window
		{us(12), us(30), us(60)}, // both windows, then the zero-length one is skipped: the split cut is next
		{us(65), us(65), us(70)},
		{us(80), us(80), Forever},
	} {
		if from, to := p.UpSpan(c.at, path...); from != c.from || to != c.to {
			t.Fatalf("UpSpan(%v) = [%v, %v), want [%v, %v)", c.at, from, to, c.from, c.to)
		}
	}
	if from, to := (*Plan)(nil).UpSpan(us(5), path...); from != us(5) || to != Forever {
		t.Fatalf("nil plan: UpSpan = [%v, %v), want [5µs, Forever)", from, to)
	}
}

// UpSpan generates exactly the windows UpAt does: twin plans on a generated
// profile, asked about the same paths at the same instants — in order, and
// then some earlier ones — one through UpSpan and one through UpAt, agree on
// every answer and on their window counters after each. A third plan checks
// each stretch against the windows themselves. The second profile's 0–1 ns
// outages are often empty, so a stretch can end at an empty window closing
// the generated schedule: it may not run past what was generated.
func TestUpSpanGeneratesWhatUpAtDoes(t *testing.T) {
	tiny := Profile{Name: "tiny", ShardMeanUp: 2, ShardMeanDown: 1, LinkMeanUp: 3, LinkMeanDown: 1, SplitMeanUp: 4, SplitMeanDown: 1}
	for _, c := range []struct {
		prof  Profile
		unit  sim.Time // the clock step
		empty bool     // a stretch may end where an empty window opens
	}{
		{PartitionChaos(), 3 * sim.Microsecond, false},
		{tiny, 1, true},
	} {
		spans, ups, check := NewPlan(c.prof, 11), NewPlan(c.prof, 11), NewPlan(c.prof, 11)
		var paths [][]Target
		for s := 0; s < 4; s++ {
			paths = append(paths, []Target{Shard(s), Link(EndpointCompute, s), Link(s, EndpointCompute)})
		}
		paths = append(paths, []Target{Link(0, 1), Link(1, 2)}, []Target{Pool()})
		at := sim.Time(0)
		for i := 0; i < 4000; i++ {
			if at += sim.Time(i%7) * c.unit; i%50 == 49 {
				at = max(at-130*c.unit, 0) // revisit instants already covered
			}
			pa := paths[i%len(paths)]
			from, to := spans.UpSpan(at, pa...)
			if want := ups.UpAt(at, pa...); from != want {
				t.Fatalf("%s: UpSpan(%v, %v) starts at %v, UpAt says %v", c.prof.Name, at, pa, from, want)
			}
			if got, want := spans.Counters(), ups.Counters(); got != want {
				t.Fatalf("%s: after UpSpan(%v, %v): counters %+v, UpAt's %+v", c.prof.Name, at, pa, got, want)
			}
			if to <= from || (to == Forever) != (c.prof.PoolMeanUp == 0 && pa[0] == Pool()) {
				t.Fatalf("%s: UpSpan(%v, %v) = [%v, %v)", c.prof.Name, at, pa, from, to)
			}
			if to == Forever {
				continue
			}
			opens := false
			for _, tg := range pa {
				for _, w := range check.Windows(tg, to+1) {
					if w.Up > w.Down && w.Down > from && w.Down < to {
						t.Fatalf("%s: UpSpan(%v, %v) = [%v, %v) spans %v's window %v", c.prof.Name, at, pa, from, to, tg, w)
					}
					opens = opens || (w.Down == to && (w.Up > w.Down || c.empty))
				}
			}
			if !opens {
				t.Fatalf("%s: UpSpan(%v, %v) = [%v, %v): no window opens at its end", c.prof.Name, at, pa, from, to)
			}
		}
	}
}

// Malformed window lists — overlapping, unsorted, Up before Down, beginning
// before time zero — panic in Pin, for every kind of target.
func TestPinRejectsMalformedWindows(t *testing.T) {
	bad := map[string][]Window{
		"overlapping": {{Down: us(10), Up: us(30)}, {Down: us(20), Up: us(40)}},
		"unsorted":    {{Down: us(50), Up: us(60)}, {Down: us(10), Up: us(20)}},
		"inverted":    {{Down: us(30), Up: us(20)}},
		"negative":    {{Down: -1, Up: us(20)}},
	}
	for _, tc := range targetCases {
		for name, ws := range bad {
			p := NewPlan(Profile{Name: "t"}, 0)
			if !panics(func() { p.Pin(tc.tg, ws...) }) {
				t.Errorf("%s: %s windows did not panic", tc.name, name)
			}
		}
	}
}

// A rejected Pin leaves the schedule and the counter as they were: the list
// is validated before anything is replaced.
func TestWindowPlanRejectsUnsortedWindows(t *testing.T) {
	for _, tc := range targetCases {
		p := NewPlan(Profile{Name: "t"}, 0)
		p.Pin(tc.tg, Window{Down: us(10), Up: us(20)})
		if !panics(func() {
			p.Pin(tc.tg, Window{Down: us(10), Up: us(30)}, Window{Down: us(20), Up: us(40)})
		}) {
			t.Fatalf("%s: overlapping windows did not panic", tc.name)
		}
		if ws := p.Windows(tc.tg, sim.Second); len(ws) != 1 || ws[0] != (Window{Down: us(10), Up: us(20)}) {
			t.Fatalf("%s: rejected Pin changed the schedule to %v", tc.name, ws)
		}
		if got := tc.count(p.Counters()); got != 1 {
			t.Fatalf("%s: rejected Pin moved the counter to %d", tc.name, got)
		}
	}
}

// Re-pinning a target replaces its windows, so the kind's counter must move
// by the difference — not count the new list on top of the old one (the
// per-family Set*Windows did, and over-counted).
func TestPinAgainReplacesCount(t *testing.T) {
	for _, tc := range targetCases {
		p := NewPlan(Profile{Name: "t"}, 0)
		p.Pin(tc.tg, Window{Down: us(10), Up: us(20)}, Window{Down: us(30), Up: us(40)})
		p.Pin(tc.tg, Window{Down: us(50), Up: us(60)})
		if got := tc.count(p.Counters()); got != 1 {
			t.Fatalf("%s: counter = %d after re-pinning two windows down to one, want 1", tc.name, got)
		}
		if _, down := p.DownAt(tc.tg, us(15)); down {
			t.Fatalf("%s: a replaced window is still in force", tc.name)
		}
		// Pinning over windows the profile already generated drops those too.
		q := NewPlan(everyKindButSplit(), 9)
		q.Windows(tc.tg, 20*sim.Millisecond)
		q.Pin(tc.tg, Window{Down: us(50), Up: us(60)})
		if got := tc.count(q.Counters()); got != 1 {
			t.Fatalf("%s: counter = %d after pinning over a generated schedule, want 1", tc.name, got)
		}
	}
}

// Windows exposes the generated schedule: every returned window's half-open
// boundaries agree with DownAt, and a later horizon only appends windows.
func TestWindowsThroughMatchesProbing(t *testing.T) {
	const through = 20 * sim.Millisecond
	for _, tc := range targetCases {
		p := NewPlan(everyKindButSplit(), 3)
		ws := p.Windows(tc.tg, through)
		if len(ws) == 0 {
			t.Fatalf("%s: no windows generated through 20ms", tc.name)
		}
		for i, w := range ws {
			if w.Down >= through {
				t.Fatalf("%s window %d begins past the horizon", tc.name, i)
			}
			if rec, down := p.DownAt(tc.tg, w.Down); !down || rec != w.Up {
				t.Fatalf("%s window %d: DownAt(Down=%v) = (%v, %v), want (%v, true)", tc.name, i, w.Down, rec, down, w.Up)
			}
			if rec, down := p.DownAt(tc.tg, w.Up-1); !down || rec != w.Up {
				t.Fatalf("%s window %d: DownAt(Up-1=%v) = (%v, %v), want (%v, true)", tc.name, i, w.Up-1, rec, down, w.Up)
			}
			if _, down := p.DownAt(tc.tg, w.Down-1); down {
				t.Fatalf("%s window %d: down just before Down=%v", tc.name, i, w.Down)
			}
		}
		more := p.Windows(tc.tg, 2*through)
		if len(more) < len(ws) || !reflect.DeepEqual(more[:len(ws)], ws) {
			t.Fatalf("%s: a later horizon rewrote earlier windows", tc.name)
		}
	}
}

// Horizons exclude windows that begin at or past them but keep ones that
// straddle them; Downtime then clips at the horizon.
func TestWindowsHorizonBoundaries(t *testing.T) {
	for _, tc := range targetCases {
		p := NewPlan(Profile{Name: "t"}, 0)
		p.Pin(tc.tg,
			Window{Down: us(10), Up: us(20)},
			Window{Down: us(30), Up: us(90)},  // straddles the horizon below
			Window{Down: us(95), Up: us(100)}, // begins past it
		)
		if ws := p.Windows(tc.tg, us(50)); len(ws) != 2 {
			t.Fatalf("%s: Windows returned %d windows, want 2 (past-horizon window excluded)", tc.name, len(ws))
		}
		if ws := p.Windows(tc.tg, us(95)); len(ws) != 2 {
			t.Fatalf("%s: a window beginning exactly at the horizon was listed", tc.name)
		}
		if got := p.Downtime(us(50), tc.tg); got != us(30) {
			t.Fatalf("%s: Downtime = %v, want %v (10 full + 20 clipped)", tc.name, got, us(30))
		}
	}
}

// Windows(link) is exactly the instants DownAt reports down for: its own
// windows and — when the endpoints sit on opposite sides of the split-brain
// cut — the split windows too, identical in both directions.
func TestLinkWindowsIncludeSplit(t *testing.T) {
	p := NewPlan(Profile{Name: "split", SplitMeanUp: sim.Millisecond, SplitMeanDown: 100 * sim.Microsecond}, 11)
	const horizon = 20 * sim.Millisecond
	// Compute (side 0) ↔ shard 1 (side 1) crosses the cut.
	cross := p.Windows(Link(EndpointCompute, 1), horizon)
	if len(cross) == 0 {
		t.Fatal("split profile generated no windows across the cut")
	}
	for _, w := range cross {
		if w.Down >= horizon {
			t.Fatalf("window [%v,%v) begins past the horizon %v", w.Down, w.Up, horizon)
		}
		mid := w.Down + (w.Up-w.Down)/2
		if _, down := p.DownAt(Link(EndpointCompute, 1), mid); !down {
			t.Fatalf("DownAt up at %v inside reported window [%v,%v)", mid, w.Down, w.Up)
		}
	}
	// Shards 0 and 2 share a side: the cut never severs them.
	if same := p.Windows(Link(0, 2), horizon); len(same) != 0 {
		t.Fatalf("same-side link got %d split windows", len(same))
	}
	if rev := p.Windows(Link(1, EndpointCompute), horizon); !reflect.DeepEqual(rev, cross) {
		t.Fatalf("cut windows differ by direction: %v vs %v", rev, cross)
	}
	if got := p.Counters(); got.SplitWindows == 0 || got.LinkWindows != 0 {
		t.Fatalf("split windows tallied wrongly: %v", got)
	}
}

// A link's own windows and the split windows come back merged in Down order
// ("oldest first"), not the split list appended after the link's own — and
// when both cover an instant DownAt reports the later heal.
func TestLinkWindowsMergedInDownOrder(t *testing.T) {
	prof := Profile{Name: "t", LinkMeanUp: 700 * sim.Microsecond, LinkMeanDown: 90 * sim.Microsecond,
		SplitMeanUp: sim.Millisecond, SplitMeanDown: 100 * sim.Microsecond}
	p := NewPlan(prof, 4)
	const horizon = 30 * sim.Millisecond
	tg := Link(0, 1)
	ws := p.Windows(tg, horizon)
	if !slices.IsSortedFunc(ws, byDown) {
		t.Fatalf("Windows(link) not in Down order: %v", ws)
	}
	own := NewPlan(Profile{Name: "t", LinkMeanUp: prof.LinkMeanUp, LinkMeanDown: prof.LinkMeanDown}, 4).Windows(tg, horizon)
	split := NewPlan(Profile{Name: "t", SplitMeanUp: prof.SplitMeanUp, SplitMeanDown: prof.SplitMeanDown}, 4).Windows(tg, horizon)
	if len(own) == 0 || len(split) == 0 || len(ws) != len(own)+len(split) {
		t.Fatalf("merged list has %d windows, want %d own + %d split", len(ws), len(own), len(split))
	}
	for _, w := range ws {
		if !slices.Contains(own, w) && !slices.Contains(split, w) {
			t.Fatalf("merged window %v is in neither source schedule", w)
		}
	}
	p.Pin(tg, Window{Down: split[0].Down, Up: split[0].Up + 7})
	if rec, down := p.DownAt(tg, split[0].Down); !down || rec != split[0].Up+7 {
		t.Fatalf("overlapping own+split outage: DownAt = (%v, %v), want the later heal %v", rec, down, split[0].Up+7)
	}
}

func TestTotalDowntimeClipsToThrough(t *testing.T) {
	for _, tc := range targetCases {
		p := NewPlan(Profile{Name: "t"}, 0)
		p.Pin(tc.tg, Window{Down: 10, Up: 20}, Window{Down: 30, Up: 50})
		for _, c := range []struct{ through, want sim.Time }{
			{0, 0}, {15, 5}, {25, 10}, {40, 20}, {100, 30},
		} {
			if got := p.Downtime(c.through, tc.tg); got != c.want {
				t.Fatalf("%s: Downtime(through=%v) = %v, want %v", tc.name, c.through, got, c.want)
			}
		}
	}
}

// pinEach pins the i-th window on the i-th of six distinct targets, so
// Downtime over them unions an arbitrary mix of schedules.
func pinEach(ws []Window) (*Plan, []Target) {
	p := NewPlan(Profile{Name: "t"}, 0)
	tgs := []Target{Pool(), Shard(0), Shard(1), Link(EndpointCompute, 0), Link(0, EndpointCompute), Link(0, 2)}[:len(ws)]
	for i, w := range ws {
		p.Pin(tgs[i], w)
	}
	return p, tgs
}

func TestUnionDowntimeMergesOverlaps(t *testing.T) {
	// Unsorted, with an overlap, a containment, an adjacency, and a gap:
	// union is [10,40) ∪ [50,60) = 40.
	ws := []Window{
		{Down: 20, Up: 40},
		{Down: 10, Up: 25},
		{Down: 12, Up: 18}, // contained
		{Down: 40, Up: 40}, // zero-length, adjacent
		{Down: 50, Up: 60},
	}
	p, tgs := pinEach(ws)
	if got := p.Downtime(100, tgs...); got != 40 {
		t.Fatalf("Downtime = %v, want 40", got)
	}
	if got := p.Downtime(55, tgs...); got != 35 {
		t.Fatalf("Downtime(through=55) = %v, want 35", got)
	}
	if got := p.Downtime(100); got != 0 {
		t.Fatalf("Downtime of no targets = %v, want 0", got)
	}
	// Disjoint schedules sum like one target's total.
	dj, djT := pinEach([]Window{{Down: 0, Up: 5}, {Down: 10, Up: 15}})
	if got := dj.Downtime(100, djT...); got != 10 {
		t.Fatalf("disjoint union = %v, want the plain sum 10", got)
	}
}

// Downtime merges overlapping and exactly-adjacent windows from any mix of
// targets without double counting.
func TestUnionDowntimeBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		ws      []Window
		through sim.Time
		want    sim.Time
	}{
		{"empty", nil, us(100), 0},
		{"disjoint", []Window{{us(10), us(20)}, {us(40), us(50)}}, us(100), us(20)},
		{"overlapping across targets", []Window{{us(10), us(30)}, {us(20), us(40)}}, us(100), us(30)},
		{"exactly adjacent merge", []Window{{us(10), us(20)}, {us(20), us(30)}}, us(100), us(20)},
		{"contained", []Window{{us(10), us(50)}, {us(20), us(30)}}, us(100), us(40)},
		{"identical twice", []Window{{us(10), us(20)}, {us(10), us(20)}}, us(100), us(10)},
		{"zero-length inert", []Window{{us(10), us(10)}}, us(100), 0},
		{"zero-length inside a window", []Window{{us(10), us(30)}, {us(20), us(20)}}, us(100), us(20)},
		{"zero-length bridges nothing", []Window{{us(10), us(20)}, {us(20), us(20)}, {us(25), us(30)}}, us(100), us(15)},
		{"clipped at through", []Window{{us(10), us(50)}}, us(30), us(20)},
		{"entirely past through", []Window{{us(50), us(60)}}, us(30), 0},
		{"unsorted input", []Window{{us(40), us(50)}, {us(10), us(20)}, {us(15), us(45)}}, us(100), us(40)},
	}
	for _, tc := range cases {
		p, tgs := pinEach(tc.ws)
		if got := p.Downtime(tc.through, tgs...); got != tc.want {
			t.Errorf("%s: Downtime = %v, want %v", tc.name, got, tc.want)
		}
		if got := unionDowntime(slices.Clone(tc.ws), tc.through); got != tc.want {
			t.Errorf("%s: unionDowntime = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Downtime works on copies: the schedules it read are not reordered.
	p, tgs := pinEach([]Window{{us(40), us(50)}, {us(10), us(20)}})
	p.Downtime(us(100), tgs...)
	if ws := p.Windows(tgs[0], us(100)); len(ws) != 1 || ws[0].Down != us(40) {
		t.Errorf("Downtime disturbed a schedule: %v", ws)
	}
}

// The lookups sit under every page fault: no plan, a kind the profile leaves
// off, a pinned schedule and an already generated one must all answer without
// allocating.
func TestScheduleLookupsDoNotAllocate(t *testing.T) {
	path := []Target{Shard(0), Link(EndpointCompute, 0), Link(0, EndpointCompute)}
	pinned := NewPlan(Profile{Name: "t"}, 0)
	pinned.Pin(Shard(0), Window{Down: us(10), Up: us(20)}, Window{Down: us(20), Up: us(30)})
	generated := NewPlan(everyKind(), 3)
	generated.UpAt(sim.Second, append(path, Pool())...) // generate past every instant probed below
	plans := map[string]*Plan{
		"nil":           nil,
		"disabled kind": NewPlan(FlakyNet(), 1),
		"pinned":        pinned,
		"generated":     generated,
	}
	for name, p := range plans {
		at := sim.Time(0)
		if n := testing.AllocsPerRun(200, func() {
			at += 37 * sim.Microsecond
			p.DownAt(Pool(), at)
			p.DownAt(path[0], at)
			p.DownAt(path[1], at)
			p.UpAt(at, path[0], path[1], path[2])
			p.UpAt(at, path...)
			p.UpSpan(at, path...)
		}); n != 0 {
			t.Errorf("%s plan: %v allocations per DownAt/UpAt/UpSpan round, want 0", name, n)
		}
	}
}

package fault

// This file is the plan's one outage schedule: every thing that can become
// unreachable — the whole memory controller, a pool shard, one direction of
// a link — is a Target with its own lazily generated (or pinned) list of
// half-open [Down, Up) windows, behind five verbs: DownAt, UpAt, UpSpan, Pin
// and Windows. There is one window generator (covering), one lookup (downAt)
// and one pin validator (Pin); the kinds differ only in their profile knobs,
// stream salt and counter (family).

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"teleport/internal/sim"
)

// Window is one outage of one target: the target is down at every instant in
// [Down, Up) and back up at exactly Up. A zero-length window (Down == Up) is
// inert: no instant falls inside the half-open interval.
type Window struct {
	Down, Up sim.Time
}

// Forever ends an up stretch that no window closes.
const Forever = sim.Time(math.MaxInt64)

// EndpointCompute is the link-endpoint index of the compute node; pool shards
// are endpoints 0..K-1. Links are ordered endpoint pairs, so
// Link(EndpointCompute, 2) is the compute→shard-2 direction and
// Link(2, EndpointCompute) the reverse.
const EndpointCompute = -1

// kind is a family of schedules sharing profile knobs and a Counters field.
type kind uint8

const (
	kindNone  kind = iota // the zero Target: never down
	kindPool              // the whole memory controller
	kindShard             // one pool shard
	kindLink              // one direction of one link
	kindSplit             // the correlated split-brain cut (folded into links)
	numKinds
)

// Target names one thing the plan can make unreachable. The zero Target
// (which the constructors return for out-of-range arguments) is never down.
type Target struct {
	kind     kind
	from, to int32 // link endpoints; a shard's index is in to
}

// Pool is the whole memory controller: down means no shard serves anything.
func Pool() Target { return Target{kind: kindPool} }

// Shard is pool shard s, crashing independently of the whole controller and
// of every other shard.
func Shard(s int) Target {
	if s < 0 {
		return Target{}
	}
	return Target{kind: kindShard, to: int32(s)}
}

// Link is the directed link from endpoint from to endpoint to
// (EndpointCompute or a shard index). The two directions of a pair fail
// independently, and independently of the endpoints' own crash schedules: a
// shard can be up yet unreachable. A link is also down while a split-brain
// window is open and its endpoints sit on opposite sides of the cut.
func Link(from, to int) Target {
	if from == to || from < EndpointCompute || to < EndpointCompute {
		return Target{}
	}
	return Target{kind: kindLink, from: int32(from), to: int32(to)}
}

// Links lists every directed link among the compute node and shards 0..k-1,
// in a fixed endpoint order (compute first), so whatever schedule extension a
// walk over them forces is deterministic.
func Links(k int) []Target {
	out := make([]Target, 0, k*(k+1))
	for from := EndpointCompute; from < k; from++ {
		for to := EndpointCompute; to < k; to++ {
			if from != to {
				out = append(out, Link(from, to))
			}
		}
	}
	return out
}

// cut returns the split-brain schedule's target when tg is a link crossing
// the fixed parity cut — the compute node sits with the even-numbered shards,
// odd-numbered shards are on the far side — and the zero Target otherwise.
func (tg Target) cut() Target {
	if tg.kind != kindLink || max(tg.from, 0)&1 == max(tg.to, 0)&1 {
		return Target{}
	}
	return Target{kind: kindSplit}
}

// salt is tg's stream salt. The fixed layer salts are 1–5 (2 is the pool's
// crash stream); shard salts sit past them, and the split-brain and per-link
// salts far past the shard salts, so no schedule collides with another
// however many shards exist. It is a pure function of the target, so a
// target's schedule is identical no matter which other targets are queried,
// or in what order, and (a, b) and (b, a) draw from distinct streams.
func (tg Target) salt() uint64 {
	switch tg.kind {
	case kindPool:
		return 2
	case kindShard:
		return 0x100 + uint64(tg.to)
	case kindLink:
		return 0x10000 + uint64(tg.from+1)*0x200 + uint64(tg.to+1)
	}
	return 0x8000
}

// schedule is one target's outage windows, sorted and non-overlapping.
// Generation is lazy but deterministic: window k is a pure function of (seed,
// target, k), so it does not matter in what order — or at what virtual times
// — the schedule is queried.
type schedule struct {
	rng     *sim.RNG
	windows []Window
	cursor  sim.Time // end of the generated schedule
	static  bool     // pinned by Pin; never extended
}

// family returns kind k's profile knobs — uptime between outages is
// Uniform[½·mu, 1½·mu], each outage lasts Uniform[½·md, 1½·md]; mu == 0
// disables the kind — and the counter its generated windows tally into.
func (p *Plan) family(k kind) (mu, md sim.Time, generated *int64) {
	switch k {
	case kindPool:
		return p.Prof.PoolMeanUp, p.Prof.PoolMeanDown, &p.c.PoolWindows
	case kindShard:
		return p.Prof.ShardMeanUp, p.Prof.ShardMeanDown, &p.c.ShardWindows
	case kindLink:
		return p.Prof.LinkMeanUp, p.Prof.LinkMeanDown, &p.c.LinkWindows
	case kindSplit:
		return p.Prof.SplitMeanUp, p.Prof.SplitMeanDown, &p.c.SplitWindows
	}
	return 0, 0, nil
}

// slot is tg's index in its kind's schedule table: the shard index, or for a
// link the Cantor pairing of its endpoints, so the tables stay dense and need
// no bound on the shard count.
func (tg Target) slot() int {
	if tg.kind != kindLink {
		return int(tg.to)
	}
	a, b := int(tg.from)+1, int(tg.to)+1
	return (a+b)*(a+b+1)/2 + b
}

// lookup returns tg's schedule if it has one (a table read, no hashing: this
// sits under every page access of a pushed function on a quorum pool).
func (p *Plan) lookup(tg Target) *schedule {
	if tab, i := p.scheds[tg.kind], tg.slot(); i < len(tab) {
		return tab[i]
	}
	return nil
}

// covering returns tg's schedule generated far enough to cover at, or nil
// when tg can never be down: its kind is off in the profile and nothing of
// that kind was pinned (decided before any table is read). It is the one
// window generator: a schedule is created on first use and grows until its
// cursor passes at; md defaults to 1 ms.
func (p *Plan) covering(tg Target, at sim.Time) *schedule {
	mu, md, generated := p.family(tg.kind)
	if mu <= 0 && !p.pinned[tg.kind] {
		return nil
	}
	sc := p.lookup(tg)
	if sc == nil {
		if mu <= 0 {
			return nil
		}
		sc = p.bind(tg)
	}
	if sc.static {
		return sc
	}
	if md <= 0 {
		md = sim.Millisecond
	}
	for sc.cursor <= at {
		down := sc.cursor + sc.rng.Duration(mu/2, mu+mu/2)
		up := down + sc.rng.Duration(md/2, md+md/2)
		sc.windows = append(sc.windows, Window{Down: down, Up: up})
		sc.cursor = up
		*generated++
	}
	return sc
}

// bind creates tg's (empty) schedule on its own derived stream.
func (p *Plan) bind(tg Target) *schedule {
	tab, i := p.scheds[tg.kind], tg.slot()
	if i >= len(tab) {
		tab = append(tab, make([]*schedule, i+1-len(tab))...)
		p.scheds[tg.kind] = tab
	}
	tab[i] = &schedule{rng: p.root.Derive(tg.salt())}
	return tab[i]
}

// downAt is the one lookup: the window covering at, if any. Safe on nil.
func (sc *schedule) downAt(at sim.Time) (recoverAt sim.Time, down bool) {
	if sc == nil {
		return 0, false
	}
	i := sort.Search(len(sc.windows), func(i int) bool { return sc.windows[i].Up > at })
	if i < len(sc.windows) && sc.windows[i].Down <= at {
		return sc.windows[i].Up, true
	}
	return 0, false
}

// nextDown returns the first instant after from, an instant at which the
// schedule is up, when a non-empty window opens; Forever when none ever does.
// A generated schedule answers no later than its cursor, so a caller never
// relies on a window nobody generated. Safe on nil.
func (sc *schedule) nextDown(from sim.Time) sim.Time {
	if sc == nil {
		return Forever
	}
	i := sort.Search(len(sc.windows), func(i int) bool { return sc.windows[i].Down > from })
	for ; i < len(sc.windows); i++ {
		if w := sc.windows[i]; w.Up > w.Down {
			return w.Down
		}
	}
	if !sc.static {
		return sc.cursor
	}
	return Forever
}

// before copies the windows that begin before through, oldest first.
func (sc *schedule) before(through sim.Time) []Window {
	if sc == nil {
		return nil
	}
	n := sort.Search(len(sc.windows), func(i int) bool { return sc.windows[i].Down >= through })
	return append([]Window(nil), sc.windows[:n]...)
}

// DownAt reports whether tg is down at virtual time at; if it is, recoverAt
// is when it is back. For a link that is its own schedule or an open
// split-brain window across the cut; when both apply, the later heal.
func (p *Plan) DownAt(tg Target, at sim.Time) (recoverAt sim.Time, down bool) {
	if p == nil {
		return 0, false
	}
	recoverAt, down = p.covering(tg, at).downAt(at)
	if cut := tg.cut(); cut.kind != kindNone {
		if rec, d := p.covering(cut, at).downAt(at); d {
			recoverAt, down = max(recoverAt, rec), true
		}
	}
	return recoverAt, down
}

// UpAt returns the earliest instant ≥ at when every one of targets is up.
// It re-checks after each candidate heal because a heal instant can land
// inside another blocking window (adjacent windows of one target, or a crash
// overlapping a partition); schedules always heal, so the loop terminates.
// Targets are consulted in argument order on every pass.
func (p *Plan) UpAt(at sim.Time, targets ...Target) sim.Time {
	if p == nil {
		return at
	}
	for {
		next := at
		for _, tg := range targets {
			if rec, down := p.DownAt(tg, at); down && rec > next {
				next = rec
			}
		}
		if next == at {
			return at
		}
		at = next
	}
}

// UpSpan returns the first stretch [from, to) at or after at during which
// every one of targets is up: from is UpAt(at, targets...), and to is the
// first instant after from at which a non-empty window of one of them opens —
// for a link crossing the split-brain cut, a split window too — or Forever.
// It generates exactly the windows UpAt does: every target is up at from, so
// its next window is among those covering it at from has produced.
func (p *Plan) UpSpan(at sim.Time, targets ...Target) (from, to sim.Time) {
	from, to = p.UpAt(at, targets...), Forever
	if p == nil {
		return from, to
	}
	for _, tg := range targets {
		to = min(to, p.covering(tg, from).nextDown(from))
		if cut := tg.cut(); cut.kind != kindNone {
			to = min(to, p.covering(cut, from).nextDown(from))
		}
	}
	return from, to
}

// Pins returns how many times Pin has rewritten a schedule, so a caller that
// memoises the plan's answers can tell when they may have changed.
func (p *Plan) Pins() int64 {
	if p == nil {
		return 0
	}
	return p.pins
}

// Pin replaces tg's schedule with exactly the given windows — sorted by Down
// and non-overlapping, or Pin panics — overriding anything the profile would
// generate for it. Tests use it to put an outage edge at an exact instant,
// which the randomised schedules cannot. The kind's window counter moves by
// the difference, so re-pinning a target does not count its windows twice.
func (p *Plan) Pin(tg Target, ws ...Window) {
	if p == nil || tg.kind == kindNone {
		return
	}
	var prev sim.Time
	for _, w := range ws {
		if w.Up < w.Down || w.Down < prev {
			panic(fmt.Sprintf("fault: Pin windows must be sorted and non-overlapping, got [%v,%v) after %v",
				w.Down, w.Up, prev))
		}
		prev = w.Up
	}
	sc := p.lookup(tg)
	if sc == nil {
		sc = p.bind(tg)
	}
	_, _, generated := p.family(tg.kind)
	*generated += int64(len(ws) - len(sc.windows))
	sc.windows, sc.cursor, sc.static = append([]Window(nil), ws...), prev, true
	p.pinned[tg.kind] = true
	p.pins++
}

// Windows returns tg's outage windows that begin before through, oldest
// first, extending a randomised schedule as needed: exactly the instants
// DownAt reports down for. A link crossing the split-brain cut gets the
// split windows merged in by Down, so its list may overlap itself.
func (p *Plan) Windows(tg Target, through sim.Time) []Window {
	if p == nil {
		return nil
	}
	out := p.covering(tg, through).before(through)
	if split := p.covering(tg.cut(), through).before(through); len(split) > 0 {
		out = append(out, split...)
		slices.SortStableFunc(out, byDown)
	}
	return out
}

// Downtime returns how much of [0, through) at least one of targets was down
// for: one target's total downtime, "degraded mode" over every shard,
// "partitioned" over every link.
func (p *Plan) Downtime(through sim.Time, targets ...Target) sim.Time {
	var all []Window
	for _, tg := range targets {
		all = append(all, p.Windows(tg, through)...)
	}
	return unionDowntime(all, through)
}

func byDown(a, b Window) int { return cmp.Compare(a.Down, b.Down) }

// unionDowntime returns the length of the union of the windows' overlap with
// [0, through). The input may be unsorted and overlapping; it is reordered.
func unionDowntime(ws []Window, through sim.Time) sim.Time {
	slices.SortFunc(ws, byDown)
	var total, covered sim.Time // covered: everything before it is accounted
	for _, w := range ws {
		down, up := max(w.Down, covered), min(w.Up, through)
		if up > down {
			total += up - down
			covered = up
		}
	}
	return total
}

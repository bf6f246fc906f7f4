package ddc

import (
	"slices"
	"testing"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

// The reference gates: the pushdown admission gate and the per-access pager
// gate as they were first written, outside this package — geometry clamped
// from Config at each use, the ring spelled inline, and every resident page's
// replica set checked on its own. FuzzReplicaGates holds GateResident and
// GateQuorum to them.

func refGeometry(cfg *Config) (k, reps, w int) {
	k = 1
	if cfg.Disaggregated && cfg.PoolShards > 1 {
		k = cfg.PoolShards
	}
	reps = min(max(cfg.Replicas, 1), k)
	w = min(max(cfg.WriteQuorum, 1), reps)
	return k, reps, w
}

// refQuorumShort counts pg's replica-set members usable at now, stopping at
// W, and when fewer than W are returns when the first unusable member heals
// and when enough have healed to restore the quorum.
func refQuorumShort(m *Machine, pg mem.PageID, now sim.Time, usableAt func(s int) sim.Time) (usable int, first, quorum sim.Time) {
	k, reps, w := refGeometry(&m.Cfg)
	primary := int(uint64(pg) % uint64(k))
	for i := 0; i < reps && usable < w; i++ {
		if usableAt((primary+i)%k) == now {
			usable++
		}
	}
	if usable >= w {
		return usable, 0, 0
	}
	heal := func(i int) (sim.Time, bool) {
		at := usableAt((primary + i) % k)
		return at, at > now
	}
	_, quorum = nthHeal(reps, w-usable, heal)
	if first = quorum; w-usable > 1 {
		_, first = nthHeal(reps, 1, heal)
	}
	return usable, first, quorum
}

// refUsableAt asks the plan directly — no memo, no Machine helper — when
// shard s is next up with both directions of its compute link.
func refUsableAt(m *Machine, s int, now sim.Time) sim.Time {
	return m.Fault.UpAt(now, fault.Shard(s), fault.Link(fault.EndpointCompute, s), fault.Link(s, fault.EndpointCompute))
}

// refShardGate resolves every shard once, then checks each resident page.
func refShardGate(m *Machine, now sim.Time, runs []netmodel.PageRun) (sim.Time, bool) {
	k, _, _ := refGeometry(&m.Cfg)
	if k <= 1 || len(runs) == 0 {
		return 0, false
	}
	table := make([]sim.Time, k)
	for s := range table {
		table[s] = refUsableAt(m, s, now)
	}
	usableAt := func(s int) sim.Time { return table[s] }
	var downWait, quorumWait sim.Time
	for _, run := range runs {
		for pg := run.Start; pg < run.Start+uint64(run.Count); pg++ {
			switch usable, first, quorum := refQuorumShort(m, mem.PageID(pg), now, usableAt); {
			case first == 0:
			case usable == 0:
				if downWait == 0 || first < downWait {
					downWait = first
				}
			case quorumWait == 0 || quorum < quorumWait:
				quorumWait = quorum
			}
		}
	}
	if downWait > 0 {
		return downWait, true
	}
	return quorumWait, false
}

// refGateQuorum resolves members on demand, as the pager gate did.
func refGateQuorum(m *Machine, pg mem.PageID, now sim.Time) sim.Time {
	usableAt := func(s int) sim.Time { return refUsableAt(m, s, now) }
	_, _, wake := refQuorumShort(m, pg, now, usableAt)
	return wake
}

// FuzzReplicaGates drives twin machines — one through GateResident and
// GateQuorum, one through the reference gates — with one script: pinned
// shard and link outages over a profile that also generates its own, clock
// advances and rewinds (a rewind lands below a memoised stretch), admission
// checks of resident run lists and pager checks of single pages. Every answer
// must agree — outcome and heal instant — and so must the plans' counters
// afterwards, which count the windows each plan generated: a gate that asks
// the plan about a target or instant the reference does not fails here even
// when its answer is right.
func FuzzReplicaGates(f *testing.F) {
	f.Add(uint8(6), uint8(3), uint8(2), int64(1), []byte{2, 2, 0, 3, 1, 1, 5, 2})                // a run shorter than K
	f.Add(uint8(6), uint8(4), uint8(2), int64(1), []byte{3, 9, 3, 10})                           // pager gates whose first W members are usable
	f.Add(uint8(2), uint8(2), uint8(0), int64(7), []byte{0, 0, 1, 2, 3, 0, 1, 1, 3, 1})          // a set pinned down, W ≤ 1
	f.Add(uint8(2), uint8(3), uint8(3), int64(3), []byte{0, 5, 3, 40, 1, 20, 2, 3, 0, 32})       // partitions under a full quorum
	f.Add(uint8(2), uint8(2), uint8(2), int64(5), []byte{1, 90, 3, 4, 4, 60, 3, 4, 1, 30, 3, 5}) // a pager gate after a rewind
	f.Fuzz(func(t *testing.T, kb, rb, wb uint8, seed int64, script []byte) {
		k := 2 + int(kb)%7
		r := 1 + int(rb)%k
		w := int(wb) % (r + 1)
		cfg := BaseDDC(64 * mem.PageSize)
		cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = k, r, w
		prof := fault.Profile{
			Name:        "gates",
			ShardMeanUp: 300 * sim.Microsecond, ShardMeanDown: 100 * sim.Microsecond,
			LinkMeanUp: 400 * sim.Microsecond, LinkMeanDown: 80 * sim.Microsecond,
			SplitMeanUp: sim.Millisecond, SplitMeanDown: 60 * sim.Microsecond,
		}
		m, ref := MustMachine(cfg), MustMachine(cfg)
		m.AttachFault(fault.NewPlan(prof, seed))
		ref.AttachFault(fault.NewPlan(prof, seed))

		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		// endpoint maps a byte onto the compute node or a shard.
		endpoint := func() int { return next()%(k+1) + fault.EndpointCompute }
		var now sim.Time
		var runs []netmodel.PageRun
		for len(script) > 0 {
			switch op := next() % 5; op {
			case 0: // pin one outage starting at now or later
				tg := fault.Shard(next() % k)
				if from, to := endpoint(), endpoint(); next()%2 == 0 {
					tg = fault.Link(from, to)
				}
				down := now + sim.Time(next())*5*sim.Microsecond
				win := fault.Window{Down: down, Up: down + sim.Time(1+next())*5*sim.Microsecond}
				m.Fault.Pin(tg, win)
				ref.Fault.Pin(tg, win)
			case 1:
				now += sim.Time(next()) * 10 * sim.Microsecond
			case 2: // admission: up to 5 runs of 1–12 pages, ascending
				runs = runs[:0]
				start := uint64(next())
				for n := next() % 6; n > 0; n-- {
					run := netmodel.PageRun{Start: start, Count: uint32(1 + next()%12)}
					runs = append(runs, run)
					start += uint64(run.Count) + uint64(1+next()%16)
				}
				gotAt, gotDown := m.GateResident(now, runs)
				wantAt, wantDown := refShardGate(ref, now, runs)
				if gotAt != wantAt || gotDown != wantDown {
					t.Fatalf("K=%d R=%d W=%d at %v, runs %v: GateResident = (%v, down=%v), reference (%v, down=%v)",
						k, r, w, now, runs, gotAt, gotDown, wantAt, wantDown)
				}
			case 3:
				pg := mem.PageID(next())
				if got, want := m.GateQuorum(pg, now), refGateQuorum(ref, pg, now); got != want {
					t.Fatalf("K=%d R=%d W=%d at %v, page %d: GateQuorum = %v, reference %v", k, r, w, now, pg, got, want)
				}
			case 4:
				now = max(now-sim.Time(next())*10*sim.Microsecond, 0)
			}
		}
		if got, want := m.Fault.Counters(), ref.Fault.Counters(); got != want {
			t.Fatalf("K=%d R=%d W=%d: plan counters %+v, reference %+v", k, r, w, got, want)
		}
	})
}

// The gates read a per-shard memo of when each shard is next usable. A Pin
// on the attached plan, or attaching another plan — even one with as many
// pins — after a memoised pass must be seen by the very next gate.
func TestGateMemoDropsOnPinAndAttach(t *testing.T) {
	cfg := BaseDDC(16 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
	m := MustMachine(cfg)
	m.AttachFault(fault.NewPlan(fault.Profile{Name: "memo"}, 0))

	const pg = mem.PageID(41) // replica set {1, 2, 3}
	runs := []netmodel.PageRun{{Start: 41, Count: 1}}
	now := 50 * sim.Microsecond
	heal := now + sim.Millisecond
	check := func(when string, want sim.Time) {
		t.Helper()
		if got := m.GateQuorum(pg, now); got != want {
			t.Fatalf("%s: GateQuorum = %v, want %v", when, got, want)
		}
		if got, down := m.GateResident(now, runs); got != want || down {
			t.Fatalf("%s: GateResident = (%v, down=%v), want (%v, down=false)", when, got, down, want)
		}
	}
	check("healthy", 0)
	if u := m.upSpans[1]; u.from != now || u.to != fault.Forever {
		t.Fatalf("shard 1's memo after a healthy pass = %+v, want usable from %v for ever", u, now)
	}

	// Shard 1 crashed and shard 2 unable to answer: one usable member.
	m.Fault.Pin(fault.Shard(1), fault.Window{Down: 0, Up: heal})
	m.Fault.Pin(fault.Link(2, fault.EndpointCompute), fault.Window{Down: now, Up: heal + sim.Microsecond})
	check("after Pin", heal)

	// A fresh plan with the same pin count puts the outage on shards 2 and 3.
	other := fault.NewPlan(fault.Profile{Name: "memo"}, 0)
	other.Pin(fault.Shard(3), fault.Window{Down: now, Up: heal + 20*sim.Microsecond})
	other.Pin(fault.Link(fault.EndpointCompute, 2), fault.Window{Down: 0, Up: heal + 30*sim.Microsecond})
	m.AttachFault(other)
	check("after attaching another plan", heal+20*sim.Microsecond)

	m.AttachFault(nil)
	check("after detaching the plan", 0)
}

// The heal selection under the quorum gates (nthHeal, fed the way they feed
// it: members usable at now are not eligible) must pick what sorting the heal
// times and indexing picked.
func TestNthHealMatchesSortedIndex(t *testing.T) {
	const now = sim.Time(100)
	for _, members := range [][]sim.Time{
		{100, 100, 100},
		{250, 100, 180},
		{300, 300, 120, 300},
		{500, 400, 300, 200, 101},
		{170, 170, 170},
	} {
		var heals []sim.Time
		for _, at := range members {
			if at != now {
				heals = append(heals, at)
			}
		}
		slices.Sort(heals)
		heal := func(i int) (sim.Time, bool) { return members[i], members[i] > now }
		for n := 1; n <= len(heals); n++ {
			i, got := nthHeal(len(members), n, heal)
			if got != heals[n-1] || members[i] != got {
				t.Errorf("members %v: nthHeal(%d) = member %d at %v, want %v", members, n, i, got, heals[n-1])
			}
		}
		if i, at := nthHeal(len(members), len(heals)+1, heal); len(heals) == 0 && (i != -1 || at != 0) {
			t.Errorf("members %v: nthHeal with nobody to heal = (%d, %v), want (-1, 0)", members, i, at)
		}
	}
}

// The replica-set gates run per pushdown at admission and per page access
// during execution, and quorum reads and writes on every paging operation of
// a replicated pool; with replicas partitioned away they must report the
// scheduled heal, consult, stall and deliver without allocating.
func TestShardGatesDoNotAllocate(t *testing.T) {
	cfg := BaseDDC(16 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
	m := MustMachine(cfg)
	plan := fault.NewPlan(fault.Profile{Name: "gates"}, 0)
	m.AttachFault(plan)
	th := sim.NewThread("t")

	down := th.Now() + 10*sim.Microsecond
	heal1, heal2 := down+2*sim.Millisecond, down+5*sim.Millisecond
	plan.Pin(fault.Shard(1), fault.Window{Down: down, Up: heal1})
	plan.Pin(fault.Shard(2), fault.Window{Down: down, Up: heal2})
	th.AdvanceTo(down + sim.Microsecond)

	// The page whose replica set is shards {1,2,3} has one usable member:
	// quorum returns with the earlier heal. {2,3,0} and {0,1,2} keep two.
	const lost = mem.PageID(41) // 41 mod 4 = 1
	runs := []netmodel.PageRun{{Start: 40, Count: 4}}
	now := th.Now()
	if wake := m.GateQuorum(lost, now); wake != heal1 {
		t.Fatalf("GateQuorum = %v, want quorum lost until %v", wake, heal1)
	}
	if wake, setDown := m.GateResident(now, runs); setDown || wake != heal1 {
		t.Fatalf("GateResident = (%v, down=%v); want quorum lost until %v", wake, setDown, heal1)
	}
	if n := testing.AllocsPerRun(100, func() { m.GateQuorum(lost, now) }); n != 0 {
		t.Errorf("GateQuorum allocates %.0f objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.GateResident(now, runs) }); n != 0 {
		t.Errorf("GateResident allocates %.0f objects per call", n)
	}

	// A quorum read (R′ = 2) of a page on {3,0,1} consults one more replica.
	consults := m.ShardTotals().ReadConsults
	if n := testing.AllocsPerRun(100, func() { m.AccessPage(th, 43, false) }); n != 0 {
		t.Errorf("a quorum read allocates %.0f objects", n)
	}
	if m.ShardTotals().ReadConsults == consults {
		t.Fatal("the quorum read consulted no replica")
	}

	// A write of a page on {0,1,2} served by shard 0 while shards 1 and 2
	// are down stalls below W = 2 until shard 1 heals, every time.
	const period, writes = sim.Millisecond, 128
	base := heal2 + period
	var w1, w2 []fault.Window
	for i := sim.Time(0); i < writes; i++ {
		w1 = append(w1, fault.Window{Down: base + i*period, Up: base + i*period + 100*sim.Microsecond})
		w2 = append(w2, fault.Window{Down: base + i*period, Up: base + i*period + 300*sim.Microsecond})
	}
	plan.Pin(fault.Shard(1), w1...)
	plan.Pin(fault.Shard(2), w2...)
	i := sim.Time(0)
	write := func() {
		th.AdvanceTo(base + i*period + sim.Microsecond)
		i++
		m.ReplicatePage(th, 44, 0)
	}
	stalls := m.ShardStats[0].QuorumStalls
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Errorf("a write below the write quorum allocates %.0f objects", n)
	}
	if got := m.ShardStats[0].QuorumStalls - stalls; got != int64(i) {
		t.Fatalf("%d of %d writes stalled below the quorum", got, i)
	}
}

package ddc

// This file is the sharded-pool fault-domain layer: with Config.PoolShards
// K > 1 the memory pool is K controllers, each an independent crash domain
// under the fault plan's per-shard schedules, and pages stripe across them
// by page ID. With Config.Replicas R > 1 every page also lives on R−1
// backup shards, and the write path is a quorum protocol: a write commits
// once W reachable replicas hold the copy (Config.WriteQuorum; W ≤ 1 is the
// legacy synchronous fan-out that never stalls), while unreachable replicas
// — crashed shards, or shards severed by an asymmetric link partition —
// receive deterministic hinted-handoff records instead. Every copy carries a
// version tag, so a failover read that lands on a shard that missed writes
// detects the staleness and read-repairs from the freshest reachable copy
// rather than silently serving stale bytes, and an anti-entropy sweep drains
// a shard's handoff queue — with the transfer traffic charged — as soon as
// traffic touches it over a healed link. Every path here is skipped
// entirely on single-shard pools, keeping K=1 machines byte-identical to
// the single-controller model, and version bookkeeping costs no virtual
// time, so healthy replicated runs match the pre-quorum model exactly.

import (
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// ShardStat aggregates one shard's fault-domain activity. A snapshot reads it
// summed over the pool (`ctr`) and per shard ("shard.<s>." + `per`).
type ShardStat struct {
	FailoverReads     int64 `ctr:"shard.failover" per:"failover-reads"`         // accesses served by a replica while this primary was unusable
	ResyncPages       int64 `ctr:"shard.resync-pages" per:"resync-pages"`       // crash-journaled pages re-replicated on recovery
	Recoveries        int64 `ctr:"shard.recovery"`                              // re-sync replays performed
	Stalls            int64 `ctr:"shard.stall" per:"stalls"`                    // accesses stalled because no replica was usable either
	HandoffRecords    int64 `ctr:"shard.handoff" per:"handoff-records"`         // hinted-handoff records enqueued for this shard (partition-caused)
	HandoffReplays    int64 `ctr:"shard.handoff-replays" per:"handoff-replays"` // hinted-handoff records delivered to this shard after a link heal
	PartitionHeals    int64 `ctr:"shard.partition-heal"`                        // anti-entropy sweeps that delivered hinted records to this shard
	ReadRepairs       int64 `ctr:"shard.read-repair" per:"read-repairs"`        // stale copies on this shard repaired from a fresher replica
	StaleReadsAverted int64 `ctr:"shard.stale-averted" per:"stale-averted"`     // reads that would have served stale bytes without the version check
	QuorumStalls      int64 `ctr:"shard.quorum-stall" per:"quorum-stalls"`      // writes (keyed by primary) stalled below the write quorum

	// Quorum traffic, keyed by the shard consulted or written. Not part of
	// the run report's schema.
	ReadConsults  int64 `ctr:"shard.read-consult" json:"-"`  // version probes of quorum reads answered by this shard
	ReplicaWrites int64 `ctr:"shard.replica-write" json:"-"` // page copies delivered to this shard as a replica
}

var shardTotals = metrics.NewLedger(ShardStat{}, "ctr", "")

// ShardTotals sums the per-shard activity over every shard of the pool (the
// zero ShardStat on a single-shard pool).
func (m *Machine) ShardTotals() ShardStat { return metrics.Sum(m.ShardStats) }

// topology is the pool's replica geometry, worked out once by NewMachine from
// the validated Config: K shards, R copies per page, write quorum W and read
// quorum R′ (the smallest with W + R′ > R when W > 1, else 1), each ≥ 1.
type topology struct{ k, r, w, rq int }

func newTopology(cfg *Config) topology {
	tp := topology{k: max(cfg.PoolShards, 1), r: max(cfg.Replicas, 1), w: max(cfg.WriteQuorum, 1), rq: 1}
	if tp.w > 1 {
		tp.rq = tp.r - tp.w + 1
	}
	return tp
}

// replicaSet is a page's primary shard, page mod K, and the R−1 shards after
// it in ring order: the one place the ring is spelled.
type replicaSet struct{ primary, k, r int }

func (tp topology) replicas(pg mem.PageID) replicaSet {
	return replicaSet{primary: int(uint64(pg) % uint64(tp.k)), k: tp.k, r: tp.r}
}

// member returns the shard i places after the primary (members: i < r).
func (rs replicaSet) member(i int) int { return (rs.primary + i) % rs.k }

// handoffRec is one pending repair for a shard that missed a write: the page,
// the version its copy must reach (0 = unconditional, used by the legacy
// write-failover journal), the shard that held the fresh copy when the record
// was journalled, and whether the miss was partition-caused (the target was
// up but unreachable — a hinted handoff) or crash-caused (plain re-sync).
type handoffRec struct {
	pg     mem.PageID
	ver    uint64
	src    int
	hinted bool
}

// resyncQueue is one shard's pending handoff/re-sync journal, in first-miss
// order with one record per page (a newer miss supersedes an older one).
type resyncQueue struct {
	recs []handoffRec
	seen map[mem.PageID]int // page → index into recs
}

// path is what one transfer needs up, in the order the fault plan is
// consulted (an unused slot is the zero Target, never down): a compute↔shard
// round trip needs the shard and both directions of its compute link; a
// one-way push only the target shard and the sending direction (partitions
// are asymmetric, and a fire-and-forget transfer never hears back).
type path [3]fault.Target

func roundTrip(s int) path {
	return path{fault.Shard(s), fault.Link(fault.EndpointCompute, s), fault.Link(s, fault.EndpointCompute)}
}

func oneWay(src, tgt int) path { return path{fault.Shard(tgt), fault.Link(src, tgt)} }

// reachable reports whether every hop of pa is up at ts, stopping at the
// first that is not (later hops' schedules are then not consulted).
func (m *Machine) reachable(pa path, ts sim.Time) bool {
	for _, tg := range pa {
		if _, down := m.Fault.DownAt(tg, ts); down {
			return false
		}
	}
	return true
}

// reachableAt returns the earliest instant ≥ at when every hop of pa is up.
func (m *Machine) reachableAt(pa path, at sim.Time) sim.Time { return m.Fault.UpAt(at, pa[:]...) }

// upSpan is one shard's round-trip memo, fault.Plan.UpSpan over roundTrip(s)
// asked at at: at any instant in [at, to) the shard is usable from
// max(instant, from) on.
type upSpan struct{ at, from, to sim.Time }

// usableAt is reachableAt(roundTrip(s), now) read from shard s's memo, which
// is refreshed only when now leaves the stretch it covers, and dropped whole
// when another plan is attached or a window pinned. Within [at, to) UpAt
// would generate no window either, so the plan's counters move exactly as
// they would without the memo.
func (m *Machine) usableAt(s int, now sim.Time) sim.Time {
	if pins := m.Fault.Pins(); m.upPlan != m.Fault || m.upPins != pins {
		clear(m.upSpans)
		m.upPlan, m.upPins = m.Fault, pins
	}
	u := &m.upSpans[s]
	if now < u.at || now >= u.to {
		pa := roundTrip(s)
		u.at = now
		u.from, u.to = m.Fault.UpSpan(now, pa[:]...)
	}
	return max(now, u.from)
}

// nthHeal scans members 0..count-1 in order — healAt(i) is when member i is
// next usable; ok=false skips it — and returns the index and instant of the
// n-th to heal (n ≥ 1, equal instants counted together, lowest index first):
// every stall below waits for the 1st, the quorum gates for the shortfall-th.
// It selects by repeated minimum, without storage. With fewer than n eligible
// members it returns the last of them to heal; (-1, 0) when there is none.
func nthHeal(count, n int, healAt func(i int) (at sim.Time, ok bool)) (int, sim.Time) {
	idx, at := -1, sim.Time(0)
	for seen := 0; seen < n; {
		best, ties := -1, 0
		var next sim.Time
		for i := 0; i < count; i++ {
			switch h, ok := healAt(i); {
			case !ok || (idx >= 0 && h <= at): // skipped, or counted already
			case ties == 0 || h < next:
				best, next, ties = i, h, 1
			case h == next:
				ties++
			}
		}
		if ties == 0 {
			break // fewer than n members are eligible
		}
		idx, at, seen = best, next, seen+ties
	}
	return idx, at
}

// stallToHeal advances t to the earliest heal among count members (nthHeal's
// healAt, evaluated at t's current time), attributing the wait to the
// pool-stall component, and returns which member that was and how long the
// stall lasted.
func (m *Machine) stallToHeal(t *sim.Thread, count int, healAt func(i int) (sim.Time, bool)) (int, sim.Time) {
	before := t.Now()
	i, at := nthHeal(count, 1, healAt)
	t.AdvanceTo(at)
	waited := t.Now() - before
	m.Obs.Times.Add(metrics.CompPoolStall, waited)
	return i, waited
}

// quorumShort is the one check of a replica set against the write quorum W;
// usableAt(i) is when member i is next up and reachable from the compute node
// both ways (both gates read it from the per-shard memo, so asking twice
// costs no search). It counts the members usable at now in ring order, up to
// W; with fewer it returns when the n-th unusable one heals — n the
// shortfall, or 1 with firstHeal when none is usable — and whether none is.
func (m *Machine) quorumShort(rs replicaSet, now sim.Time, firstHeal bool, usableAt func(i int) sim.Time) (heal sim.Time, none bool) {
	n := m.topo.w
	for i := 0; i < rs.r && n > 0; i++ {
		if usableAt(i) == now {
			n--
		}
	}
	if n == 0 {
		return 0, false
	}
	if none = n == m.topo.w; none && firstHeal {
		n = 1
	}
	_, heal = nthHeal(rs.r, n, func(i int) (sim.Time, bool) {
		at := usableAt(i)
		return at, at > now
	})
	return heal, none
}

// GateResident is the pushdown admission gate on the resident list runs:
// zero when every shipped page's replica set has W members usable at now;
// else, if some set has none, setDown and when the first such set is usable
// again, or else when the first short set regains W. A page's answer depends
// only on its primary, so each shard is resolved once and each primary the
// runs cover checked once: O(runs + K·R). Free when K = 1.
func (m *Machine) GateResident(now sim.Time, runs []netmodel.PageRun) (healAt sim.Time, setDown bool) {
	k := m.topo.k
	if k <= 1 || len(runs) == 0 {
		return 0, false
	}
	for s := range m.upSpans { // every shard, as ever: which are asked moves the plan's window counters
		m.usableAt(s, now)
	}
	// The covered primaries as a difference array over the ring: a run of
	// n < K pages covers the n primaries from its first page's on.
	cover := m.cover
	clear(cover)
	for _, run := range runs {
		if run.Count == 0 {
			continue
		}
		rs := m.topo.replicas(mem.PageID(run.Start))
		lo, hi := rs.primary, rs.member(min(int(run.Count), k)) // hi: the first primary past the run
		cover[lo]++
		cover[hi]--
		if hi <= lo { // the run wraps past shard K−1, or covers the whole ring
			cover[0]++
		}
	}
	var down, short sim.Time
	for p, depth := 0, 0; p < k; p++ {
		if depth += cover[p]; depth == 0 {
			continue
		}
		rs := m.topo.replicas(mem.PageID(p)) // page p's set is every primary-p page's
		switch h, none := m.quorumShort(rs, now, true, func(i int) sim.Time { return m.usableAt(rs.member(i), now) }); {
		case h == 0:
		case none && (down == 0 || h < down):
			down = h
		case !none && (short == 0 || h < short):
			short = h
		}
	}
	if down > 0 {
		return down, true
	}
	return short, false
}

// GateQuorum is a pushed function's per-access write-quorum gate: zero when
// pg's replica set has W members usable at now, else when enough have healed.
// Members are read from the per-shard memo (usableAt) in ring order, only
// until W are usable; the plan is searched only when now has left a
// member's memoised stretch.
func (m *Machine) GateQuorum(pg mem.PageID, now sim.Time) sim.Time {
	rs := m.topo.replicas(pg)
	heal, _ := m.quorumShort(rs, now, false, func(i int) sim.Time { return m.usableAt(rs.member(i), now) })
	return heal
}

// QuorumGated reports whether a pushed function's page accesses pass
// GateQuorum: the pool has a write quorum W > 1 to lose.
func (m *Machine) QuorumGated() bool { return m.topo.w > 1 }

// bumpPageVer advances pg's committed version and returns it (0 on
// unversioned pools). Version bookkeeping is pure metadata: it costs no
// virtual time, so healthy runs are unchanged by it.
func (m *Machine) bumpPageVer(pg mem.PageID) uint64 {
	if m.pageVer == nil {
		return 0
	}
	v := m.pageVer[pg] + 1
	m.pageVer[pg] = v
	return v
}

// copyVer returns the version of shard s's copy of pg.
func (m *Machine) copyVer(s int, pg mem.PageID) uint64 {
	if m.shardVer == nil {
		return 0
	}
	return m.shardVer[s][pg]
}

// setCopyVer records that shard s's copy of pg reached version v. Versions
// never regress.
func (m *Machine) setCopyVer(s int, pg mem.PageID, v uint64) {
	if m.shardVer == nil || v <= m.shardVer[s][pg] {
		return
	}
	m.shardVer[s][pg] = v
}

// AccessPage routes one compute↔pool page operation on pg and returns the
// shard that serves it. On single-shard pools it only performs the
// whole-controller outage stall (WaitPoolUp) and returns 0. On multi-shard
// pools it also redirects to a usable replica when the primary is crashed or
// partitioned (one control round trip under a "failover" span; a write also
// journals the primary's repair), stalls to the earliest member's heal when
// none is usable, and drains the serving shard's handoff journal first. A
// read then consults R′−1 other replicas, so any committed write meets the
// read set, and read-repairs a stale serving copy; a write's own
// ReplicatePage commit refreshes its copy.
func (m *Machine) AccessPage(t *sim.Thread, pg mem.PageID, write bool) int {
	m.WaitPoolUp(t)
	if m.topo.k <= 1 {
		return 0
	}
	rs := m.topo.replicas(pg)
	// firstUsable is the first member, in ring order, that can serve
	// compute traffic now (-1: none).
	firstUsable := func() int {
		for i := 0; i < rs.r; i++ {
			if s := rs.member(i); m.reachable(roundTrip(s), t.Now()) {
				return s
			}
		}
		return -1
	}
	served := firstUsable()
	stalled := served < 0
	if stalled {
		// No usable member: nowhere to get the page — stall to the earliest
		// instant any member of the replica set is usable again.
		m.ShardStats[rs.primary].Stalls++
		start := t.Now()
		m.stallToHeal(t, rs.r, func(i int) (sim.Time, bool) {
			return m.usableAt(rs.member(i), start), true
		})
		if served = firstUsable(); served < 0 {
			served = rs.primary
		}
	}
	m.drainHandoff(t, served)
	if served != rs.primary {
		if !stalled {
			// Failover: one control round trip to be redirected.
			sp := m.Obs.Begin(t, trace.KindFailover, uint64(pg), int64(served))
			m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassPageFault)
			m.Obs.End(t, sp)
			m.ShardStats[rs.primary].FailoverReads++
		}
		if write {
			m.journalHandoff(t, rs.primary, pg, 0, served, false)
		}
	}
	if !write {
		m.consultReadQuorum(t, rs, served)
		m.readRepair(t, pg, rs, served)
	}
	return served
}

// consultReadQuorum charges the version probes of a quorum read: one control
// round trip on the replica class per extra replica consulted, stalling for
// the earliest heal when fewer than R′−1 other members are reachable (the
// read cannot rule out staleness without quorum overlap).
func (m *Machine) consultReadQuorum(t *sim.Thread, rs replicaSet, served int) {
	need := m.topo.rq - 1
	var consulted uint64 // ring indices consulted so far
	consult := func(i int) {
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassReplica)
		m.ShardStats[rs.member(i)].ReadConsults++
		consulted |= 1 << i
		need--
	}
	for i := 0; i < rs.r && need > 0; i++ {
		if s := rs.member(i); s != served && m.reachable(roundTrip(s), t.Now()) {
			consult(i)
		}
	}
	var stalled sim.Time
	for need > 0 {
		best, waited := m.stallToHeal(t, rs.r, func(i int) (sim.Time, bool) {
			s := rs.member(i)
			if s == served || consulted&(1<<i) != 0 {
				return 0, false
			}
			return m.usableAt(s, t.Now()), true
		})
		stalled += waited
		consult(best)
	}
	if stalled > 0 {
		m.ShardStats[rs.primary].QuorumStalls++
	}
}

// readRepair compares the serving copy's version tag against the page's
// committed version and, when stale, fetches the page from the first
// reachable fresh replica under a "read-repair" span before the read is
// served. The committed writer's shard always holds the latest version, so a
// fresh source exists; while none is reachable the repair stalls.
func (m *Machine) readRepair(t *sim.Thread, pg mem.PageID, rs replicaSet, served int) {
	if m.pageVer == nil {
		return
	}
	want := m.pageVer[pg]
	if want == 0 || m.copyVer(served, pg) >= want {
		return
	}
	m.ShardStats[served].StaleReadsAverted++
	fresh := func(i int) bool { // another member holding version want
		s := rs.member(i)
		return s != served && m.copyVer(s, pg) >= want
	}
	src := -1
	var stalled sim.Time
	for src < 0 {
		for i := 0; i < rs.r && src < 0; i++ {
			if fresh(i) && m.reachable(oneWay(rs.member(i), served), t.Now()) {
				src = rs.member(i)
			}
		}
		if src < 0 {
			_, waited := m.stallToHeal(t, rs.r, func(i int) (sim.Time, bool) {
				if !fresh(i) {
					return 0, false
				}
				return m.reachableAt(oneWay(rs.member(i), served), t.Now()), true
			})
			stalled += waited
		}
	}
	if stalled > 0 {
		m.ShardStats[rs.primary].QuorumStalls++
	}
	sp := m.Obs.Begin(t, trace.KindReadRepair, uint64(pg), int64(served))
	m.Fabric.RoundTrip(t, ctrlMsgBytes, pageRespBytes, netmodel.ClassReplica)
	m.Obs.End(t, sp)
	m.setCopyVer(served, pg, m.copyVer(src, pg))
	m.ShardStats[served].ReadRepairs++
}

// ReplicatePage commits one page of data entering the pool on shard served
// under the write-quorum protocol: every other member of pg's replica set
// receives a copy on the replica class when reachable, else a handoff record —
// hinted when the shard is up but partitioned, plain re-sync when crashed.
// With W > 1 the write stalls until W copies have landed, delivering to
// pending members as their paths heal. No-op without replication.
func (m *Machine) ReplicatePage(t *sim.Thread, pg mem.PageID, served int) {
	if m.topo.r <= 1 {
		return
	}
	rs := m.topo.replicas(pg)
	ver := m.bumpPageVer(pg)
	m.setCopyVer(served, pg, ver)
	acked := 1
	deliver := func(s int) {
		m.Fabric.Send(t, writebackBytes, netmodel.ClassReplica)
		m.ShardStats[s].ReplicaWrites++
		m.setCopyVer(s, pg, ver)
		acked++
	}
	var pending uint64 // ring indices still owed the copy
	for i := 0; i < rs.r; i++ {
		s := rs.member(i)
		if s == served {
			continue
		}
		if m.reachable(oneWay(served, s), t.Now()) {
			deliver(s)
			continue
		}
		_, down := m.Fault.DownAt(fault.Shard(s), t.Now())
		m.journalHandoff(t, s, pg, ver, served, !down)
		pending |= 1 << i
	}
	if acked >= m.topo.w || pending == 0 {
		return
	}
	// Below the write quorum: deliver to the pending member whose path heals
	// first (the lowest ring index on a tie) until W acks are in. The handoff
	// record a delivery supersedes is retired by the next drain.
	m.ShardStats[rs.primary].QuorumStalls++
	for acked < m.topo.w && pending != 0 {
		best, _ := m.stallToHeal(t, rs.r, func(i int) (sim.Time, bool) {
			if pending&(1<<i) == 0 {
				return 0, false
			}
			return m.reachableAt(oneWay(served, rs.member(i)), t.Now()), true
		})
		deliver(rs.member(best))
		pending &^= 1 << best
	}
}

// serveShard resolves, without charging or stalling, which shard receives
// pg's data at ts: the first member reachable from the compute node, else the
// primary (the transport buffers it; the handoff journal repairs the rest).
// Eviction write-backs use it: they are fire-and-forget.
func (m *Machine) serveShard(ts sim.Time, pg mem.PageID) int {
	if m.topo.k <= 1 {
		return 0
	}
	rs := m.topo.replicas(pg)
	for i := 0; i < rs.r; i++ {
		if s := rs.member(i); m.reachable(oneWay(fault.EndpointCompute, s), ts) {
			return s
		}
	}
	return rs.primary
}

// journalHandoff queues pg for re-replication to shard target once it is
// reachable again: target's copy must reach version ver (0 = unconditional),
// with src holding the fresh copy now. hinted marks partition-caused misses
// (the target was up), which replay under the anti-entropy span rather than
// the crash-recovery one. One record per page: a newer miss supersedes an
// older one.
func (m *Machine) journalHandoff(t *sim.Thread, target int, pg mem.PageID, ver uint64, src int, hinted bool) {
	q := &m.resync[target]
	if q.seen == nil {
		q.seen = make(map[mem.PageID]int)
	}
	if i, dup := q.seen[pg]; dup {
		if rec := &q.recs[i]; ver >= rec.ver {
			rec.ver, rec.src, rec.hinted = ver, src, hinted
		}
		return
	}
	q.seen[pg] = len(q.recs)
	q.recs = append(q.recs, handoffRec{pg: pg, ver: ver, src: src, hinted: hinted})
	m.handoffDepth++
	if hinted {
		m.ShardStats[target].HandoffRecords++
		m.Obs.Instant(t, trace.KindHintedHandoff, uint64(pg), int64(target))
	}
}

// drainHandoff replays shard's handoff/re-sync journal before the shard
// serves traffic: records its copy already caught up on retire silently;
// records a fresh-enough replica can push are delivered, one page transfer
// each on the replica class — crash-origin ones under a "shard-recover" span,
// then hinted ones under a "shard-anti-entropy" span, which counts as one
// PartitionHeals; the rest stay queued. Free when the journal is empty.
func (m *Machine) drainHandoff(t *sim.Thread, shard int) {
	q := &m.resync[shard]
	if len(q.recs) == 0 {
		return
	}
	var delivered [2]int64 // crash-origin, hinted
	remain := q.recs[:0]
	for _, rec := range q.recs {
		if rec.ver > 0 && m.copyVer(shard, rec.pg) >= rec.ver {
			m.handoffDepth-- // superseded: a later delivery already caught this copy up
			continue
		}
		src, sv := m.pickHandoffSource(rec, shard, t.Now())
		if src < 0 {
			remain = append(remain, rec)
			continue
		}
		m.setCopyVer(shard, rec.pg, sv)
		if rec.hinted {
			delivered[1]++
		} else {
			delivered[0]++
		}
		m.handoffDepth--
	}
	st := &m.ShardStats[shard]
	for i, kind := range [2]trace.Kind{trace.KindShardRecover, trace.KindShardAntiEntropy} {
		n := delivered[i]
		if n == 0 {
			continue
		}
		sp := m.Obs.Begin(t, kind, uint64(shard), n)
		for range n {
			m.Fabric.Send(t, pageRespBytes, netmodel.ClassReplica)
		}
		m.Obs.End(t, sp)
		if i == 0 {
			st.Recoveries++
			st.ResyncPages += n
		} else {
			st.HandoffReplays += n
			st.PartitionHeals++
		}
	}
	q.recs = remain
	clear(q.seen)
	for i, rec := range remain {
		q.seen[rec.pg] = i
	}
}

// pickHandoffSource resolves which replica pushes rec's page to shard tgt at
// ts, preferring the journalled source and falling back to any replica whose
// copy is at least as fresh, in ring order; -1 when none is reachable. The
// second result is the version the chosen source delivers.
func (m *Machine) pickHandoffSource(rec handoffRec, tgt int, ts sim.Time) (int, uint64) {
	v := m.copyVer(rec.src, rec.pg)
	need := max(rec.ver, v)
	if v >= rec.ver && m.reachable(oneWay(rec.src, tgt), ts) {
		// The journalled source is itself up (a reachable crashed shard is
		// impossible) and holds the fresh copy: the common case.
		return rec.src, v
	}
	rs := m.topo.replicas(rec.pg)
	for i := 0; i < rs.r; i++ {
		s := rs.member(i)
		if s == tgt || s == rec.src || m.copyVer(s, rec.pg) < need {
			continue
		}
		if m.reachable(oneWay(s, tgt), ts) {
			return s, m.copyVer(s, rec.pg)
		}
	}
	return -1, 0
}

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

// ShardOf maps a page to its primary shard by striping page IDs across the K
// controllers. It is a pure function, so placement is identical across runs
// and across the layers (paging, pushdown gate, figures) that compute it.
func ShardOf(pg mem.PageID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(uint64(pg) % uint64(shards))
}

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
// consulted (an unused slot is the zero Target, which is never down). There
// are exactly two kinds: a compute↔shard round trip needs the shard and both
// directions of its compute link; a one-way push needs the target shard and
// the sending direction only (partitions are asymmetric, and a
// fire-and-forget transfer never hears back).
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

// ShardUsableAt returns the earliest instant ≥ at when shard s is up and
// reachable from the compute node in both directions.
func (m *Machine) ShardUsableAt(s int, at sim.Time) sim.Time { return m.reachableAt(roundTrip(s), at) }

// NthHeal scans members 0..count-1 in order — healAt(i) is when member i is
// next usable; ok=false skips it — and returns the index and instant of the
// n-th to heal (n ≥ 1, equal instants counted together, lowest index first).
// It is the one "who is back first" selection: every stall below waits for
// the 1st, and core's quorum gate for the (W−usable)-th. Replica sets are
// tiny and a stall is rare, so it selects by repeated minimum: no storage,
// whatever the replication factor. With fewer than n eligible members it
// returns the last of them to heal; (-1, 0) when there is none.
func NthHeal(count, n int, healAt func(i int) (at sim.Time, ok bool)) (int, sim.Time) {
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

// stallToHeal advances t to the earliest heal among count members (NthHeal's
// healAt, evaluated at t's current time), attributing the wait to the
// pool-stall component, and returns which member that was and how long the
// stall lasted.
func (m *Machine) stallToHeal(t *sim.Thread, count int, healAt func(i int) (sim.Time, bool)) (int, sim.Time) {
	before := t.Now()
	i, at := NthHeal(count, 1, healAt)
	t.AdvanceTo(at)
	waited := t.Now() - before
	m.Obs.Times.Add(metrics.CompPoolStall, waited)
	return i, waited
}

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
// pools it additionally: drains the serving shard's handoff/re-sync journal
// before the shard serves traffic, redirects to a usable replica when the
// primary is crashed or partitioned (one control round trip of failover
// latency, a "failover" span, and — for writes — a journal entry so the
// primary is repaired later), consults R′−1 extra replicas on quorum reads,
// read-repairs a stale serving copy from the freshest reachable replica, and
// stalls to the earliest member's heal when no replica is usable, exactly
// like a whole-controller outage.
func (m *Machine) AccessPage(t *sim.Thread, pg mem.PageID, write bool) int {
	m.WaitPoolUp(t)
	k := m.Cfg.Shards()
	if k <= 1 {
		return 0
	}
	primary := ShardOf(pg, k)
	r := m.Cfg.EffReplicas()
	// firstUsable is the first member of pg's replica set, in ring order
	// from the primary, that can serve compute traffic now (-1: none).
	firstUsable := func() int {
		for i := 0; i < r; i++ {
			if s := (primary + i) % k; m.reachable(roundTrip(s), t.Now()) {
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
		m.ShardStats[primary].Stalls++
		start := t.Now()
		m.stallToHeal(t, r, func(i int) (sim.Time, bool) {
			return m.ShardUsableAt((primary+i)%k, start), true
		})
		if served = firstUsable(); served < 0 {
			served = primary
		}
	}
	m.drainHandoff(t, served)
	if served != primary {
		if !stalled {
			// Failover: one control round trip to be redirected.
			sp := m.Obs.Begin(t, trace.KindFailover, uint64(pg), int64(served))
			m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassPageFault)
			m.Obs.End(t, sp)
			m.ShardStats[primary].FailoverReads++
		}
		if write {
			m.journalHandoff(t, primary, pg, 0, served, false)
		}
	}
	m.serveQuorumRead(t, pg, served, primary, write)
	return served
}

// serveQuorumRead runs the read-side quorum protocol after routing resolved
// the serving shard: consult R′−1 other replicas so any committed write
// intersects the read set, then repair the serving copy if the version tags
// expose it as stale. Both steps are no-ops on legacy (R′ ≤ 1) configs and
// on writes (the write's own ReplicatePage commit refreshes the copy), so
// non-quorum runs are byte-identical to the pre-quorum model.
func (m *Machine) serveQuorumRead(t *sim.Thread, pg mem.PageID, served, primary int, write bool) {
	if write {
		return
	}
	m.consultReadQuorum(t, pg, served, primary)
	m.readRepair(t, pg, served, primary)
}

// consultReadQuorum charges the version probes of a quorum read: one control
// round trip on the replica class per extra replica consulted, stalling for
// the earliest heal when fewer than R′−1 other members are reachable (the
// read cannot rule out staleness without quorum overlap).
func (m *Machine) consultReadQuorum(t *sim.Thread, pg mem.PageID, served, primary int) {
	need := m.Cfg.EffReadQuorum() - 1
	if need <= 0 {
		return
	}
	k := m.Cfg.Shards()
	r := m.Cfg.EffReplicas()
	consulted := make([]bool, r)
	got := 0
	for i := 0; i < r && got < need; i++ {
		s := (primary + i) % k
		if s == served || !m.reachable(roundTrip(s), t.Now()) {
			continue
		}
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassReplica)
		m.ShardStats[s].ReadConsults++
		consulted[i] = true
		got++
	}
	var stalled sim.Time
	for got < need {
		best, waited := m.stallToHeal(t, r, func(i int) (sim.Time, bool) {
			s := (primary + i) % k
			if s == served || consulted[i] {
				return 0, false
			}
			return m.ShardUsableAt(s, t.Now()), true
		})
		stalled += waited
		m.Fabric.RoundTrip(t, ctrlMsgBytes, ctrlMsgBytes, netmodel.ClassReplica)
		m.ShardStats[(primary+best)%k].ReadConsults++
		consulted[best] = true
		got++
	}
	if stalled > 0 {
		m.ShardStats[primary].QuorumStalls++
	}
}

// readRepair compares the serving copy's version tag against the page's
// committed version and, when stale, fetches the page from the freshest
// reachable replica under a "read-repair" span before the read is served —
// the read observes committed bytes instead of stale ones. The committed
// writer's shard always holds the latest version, so a fresh source always
// exists; if it is momentarily unreachable the repair stalls for its heal.
func (m *Machine) readRepair(t *sim.Thread, pg mem.PageID, served, primary int) {
	if m.pageVer == nil {
		return
	}
	want := m.pageVer[pg]
	if want == 0 || m.copyVer(served, pg) >= want {
		return
	}
	m.ShardStats[served].StaleReadsAverted++
	k := m.Cfg.Shards()
	r := m.Cfg.EffReplicas()
	src := -1
	var stalled sim.Time
	for src < 0 {
		for i := 0; i < r; i++ {
			s := (primary + i) % k
			if s == served || m.copyVer(s, pg) < want {
				continue
			}
			if m.reachable(oneWay(s, served), t.Now()) {
				src = s
				break
			}
		}
		if src >= 0 {
			break
		}
		_, waited := m.stallToHeal(t, r, func(i int) (sim.Time, bool) {
			s := (primary + i) % k
			if s == served || m.copyVer(s, pg) < want {
				return 0, false
			}
			return m.reachableAt(oneWay(s, served), t.Now()), true
		})
		stalled += waited
	}
	if stalled > 0 {
		m.ShardStats[primary].QuorumStalls++
	}
	sp := m.Obs.Begin(t, trace.KindReadRepair, uint64(pg), int64(served))
	m.Fabric.RoundTrip(t, ctrlMsgBytes, pageRespBytes, netmodel.ClassReplica)
	m.Obs.End(t, sp)
	m.setCopyVer(served, pg, m.copyVer(src, pg))
	m.ShardStats[served].ReadRepairs++
}

// ReplicatePage commits one page of data entering the pool on shard served
// under the write-quorum protocol: every other shard in pg's replica set
// either receives a copy on the replica traffic class (when reachable) or a
// handoff record — hinted when the shard is up but its link is partitioned,
// plain re-sync when it is crashed. With W ≤ 1 (the legacy regime) the write
// never stalls; with W > 1 it stalls until W copies have landed, delivering
// to pending members as their links heal. No-op without replication
// (Replicas ≤ 1), keeping unreplicated machines byte-identical.
func (m *Machine) ReplicatePage(t *sim.Thread, pg mem.PageID, served int) {
	r := m.Cfg.EffReplicas()
	if r <= 1 {
		return
	}
	k := m.Cfg.Shards()
	primary := ShardOf(pg, k)
	ver := m.bumpPageVer(pg)
	m.setCopyVer(served, pg, ver)
	acked := 1
	deliver := func(s int) {
		m.Fabric.Send(t, writebackBytes, netmodel.ClassReplica)
		m.ShardStats[s].ReplicaWrites++
		m.setCopyVer(s, pg, ver)
		acked++
	}
	var pending []int
	for i := 0; i < r; i++ {
		s := (primary + i) % k
		if s == served {
			continue
		}
		if m.reachable(oneWay(served, s), t.Now()) {
			deliver(s)
			continue
		}
		_, down := m.Fault.DownAt(fault.Shard(s), t.Now())
		m.journalHandoff(t, s, pg, ver, served, !down)
		pending = append(pending, s)
	}
	w := m.Cfg.EffWriteQuorum()
	if acked >= w || len(pending) == 0 {
		return
	}
	// Below the write quorum: the write cannot commit on reachable copies
	// alone, so stall, delivering the copy to the pending member whose
	// path heals first until W acks are in. The handoff record a delivery
	// supersedes is retired by the version check on the next drain.
	m.ShardStats[primary].QuorumStalls++
	for acked < w && len(pending) > 0 {
		best, _ := m.stallToHeal(t, len(pending), func(j int) (sim.Time, bool) {
			return m.reachableAt(oneWay(served, pending[j]), t.Now()), true
		})
		deliver(pending[best])
		pending = append(pending[:best], pending[best+1:]...)
	}
}

// serveShard resolves which shard receives page data for pg at ts without
// charging or stalling anything: the primary when up and reachable on the
// compute→shard direction, else the first such replica, else the primary
// (the transfer is buffered by the transport and the handoff journal repairs
// the rest). Eviction write-backs use it — they are fire-and-forget and must
// not stall the evicting thread.
func (m *Machine) serveShard(ts sim.Time, pg mem.PageID) int {
	k := m.Cfg.Shards()
	if k <= 1 {
		return 0
	}
	primary := ShardOf(pg, k)
	if m.reachable(oneWay(fault.EndpointCompute, primary), ts) {
		return primary
	}
	for i := 1; i < m.Cfg.EffReplicas(); i++ {
		if s := (primary + i) % k; m.reachable(oneWay(fault.EndpointCompute, s), ts) {
			return s
		}
	}
	return primary
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

// drainHandoff replays shard's pending handoff/re-sync journal before the
// shard serves traffic: records the shard's copy already caught up on are
// retired silently; records whose source (or any fresh-enough replica) can
// push to the shard are delivered — one page transfer each on the replica
// class — crash-origin records under a "shard-recover" span and hinted ones
// under a "shard-anti-entropy" span with a "partition-heal" marker;
// undeliverable records stay queued for a later sweep. Free when the journal
// is empty, so healthy runs are unaffected.
func (m *Machine) drainHandoff(t *sim.Thread, shard int) {
	q := &m.resync[shard]
	if len(q.recs) == 0 {
		return
	}
	now := t.Now()
	var crash, hinted, remain []handoffRec
	for _, rec := range q.recs {
		if rec.ver > 0 && m.copyVer(shard, rec.pg) >= rec.ver {
			m.handoffDepth-- // superseded: a later delivery already caught this copy up
			continue
		}
		src, sv := m.pickHandoffSource(rec, shard, now)
		if src < 0 {
			remain = append(remain, rec)
			continue
		}
		m.setCopyVer(shard, rec.pg, sv)
		if rec.hinted {
			hinted = append(hinted, rec)
		} else {
			crash = append(crash, rec)
		}
		m.handoffDepth--
	}
	if n := int64(len(crash)); n > 0 {
		sp := m.Obs.Begin(t, trace.KindShardRecover, uint64(shard), n)
		for range crash {
			m.Fabric.Send(t, pageRespBytes, netmodel.ClassReplica)
		}
		m.Obs.End(t, sp)
		m.ShardStats[shard].Recoveries++
		m.ShardStats[shard].ResyncPages += n
	}
	if n := int64(len(hinted)); n > 0 {
		sp := m.Obs.Begin(t, trace.KindShardAntiEntropy, uint64(shard), n)
		for range hinted {
			m.Fabric.Send(t, pageRespBytes, netmodel.ClassReplica)
		}
		m.Obs.End(t, sp)
		m.Obs.Instant(t, trace.KindPartitionHeal, uint64(hinted[0].pg), int64(shard))
		m.ShardStats[shard].HandoffReplays += n
		m.ShardStats[shard].PartitionHeals++
	}
	q.recs = remain
	if q.seen == nil {
		q.seen = make(map[mem.PageID]int)
	} else {
		clear(q.seen)
	}
	for i, rec := range remain {
		q.seen[rec.pg] = i
	}
}

// pickHandoffSource resolves which replica pushes rec's page to shard tgt at
// ts, preferring the journalled source and falling back to any replica whose
// copy is at least as fresh, in ring order; -1 when none is reachable. The
// second result is the version the chosen source delivers.
func (m *Machine) pickHandoffSource(rec handoffRec, tgt int, ts sim.Time) (int, uint64) {
	need := rec.ver
	if v := m.copyVer(rec.src, rec.pg); v > need {
		need = v
	}
	if m.copyVer(rec.src, rec.pg) >= need && m.reachable(oneWay(rec.src, tgt), ts) {
		// The journalled source is itself up (a reachable crashed shard is
		// impossible) and holds the fresh copy: the common case.
		return rec.src, m.copyVer(rec.src, rec.pg)
	}
	k := m.Cfg.Shards()
	primary := ShardOf(rec.pg, k)
	for i := 0; i < m.Cfg.EffReplicas(); i++ {
		s := (primary + i) % k
		if s == tgt || s == rec.src || m.copyVer(s, rec.pg) < need {
			continue
		}
		if m.reachable(oneWay(s, tgt), ts) {
			return s, m.copyVer(s, rec.pg)
		}
	}
	return -1, 0
}

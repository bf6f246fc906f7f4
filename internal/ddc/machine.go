package ddc

import (
	"strconv"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/storage"
	"teleport/internal/trace"
)

// Wire sizes for the paging protocol.
const (
	faultReqBytes  = 48                // page-fault request header
	pageRespBytes  = mem.PageSize + 32 // page payload + response header
	ctrlMsgBytes   = 48                // permission/invalidation control message
	writebackBytes = mem.PageSize + 32
)

// Machine is one (possibly disaggregated) machine: the fabric, the storage
// device, and the configuration shared by its processes.
type Machine struct {
	Cfg    Config
	Fabric *netmodel.Fabric
	SSD    *storage.SSD

	// Obs is the machine's one stopwatch (see trace.Tracer): every layer
	// times its intervals and records its events through it, at no virtual
	// cost. Obs.Times is always allocated — each layer charges its own
	// advances to a disjoint component (a closing span, or Charge), so
	// elapsed − Times.TotalNs() is pure compute; Obs.Ring and Obs.Hists are
	// nil until AttachTrace/AttachMetrics. Trace is the attached ring.
	Obs   trace.Tracer
	Trace *trace.Ring

	// Fault, when non-nil, is the machine's deterministic chaos plan (see
	// internal/fault). Attach with AttachFault so every layer — fabric,
	// SSD, TELEPORT runtime — consults the same plan.
	Fault *fault.Plan

	// PoolStalls counts paging operations that had to wait out a
	// memory-controller outage ("pool.stall" in a snapshot).
	PoolStalls int64

	// ShardStats aggregates per-shard fault-domain activity (failover
	// reads, re-sync replays, no-replica stalls) on multi-shard pools,
	// indexed by shard. Nil on single-shard pools.
	ShardStats []ShardStat

	// resync holds, per shard, the journal of pages whose copy on that
	// shard missed a write during an outage or partition; drainHandoff
	// replays it before the shard serves traffic again. Nil on
	// single-shard pools.
	resync []resyncQueue

	// pageVer tags every page's latest committed version and shardVer[s]
	// the version of shard s's copy, so failover reads detect staleness
	// (see shard.go). Pure metadata — reads and writes cost no virtual
	// time. Nil unless the pool is both sharded and replicated.
	pageVer  map[mem.PageID]uint64
	shardVer []map[mem.PageID]uint64

	// handoffDepth counts queued handoff/re-sync records across all
	// shards (the "shard.handoff.depth" gauge).
	handoffDepth int64

	// perShard[s] exports ShardStats[s] under "shard.<s>.": names built once.
	perShard []metrics.Ledger

	// topo is the pool's replica geometry (see shard.go).
	topo topology

	// upSpans memoises, per shard, when it is next usable over a compute
	// round trip (see usableAt); upPlan and upPins are the plan and its pin
	// count the memo was taken under. cover is GateResident's scratch, never
	// held across a yield: how many resident runs cover each shard as a
	// primary. Both slices are nil on single-shard pools.
	upSpans []upSpan
	upPlan  *fault.Plan
	upPins  int64
	cover   []int
}

// NewMachine validates cfg and assembles the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Obs: trace.Tracer{Times: &metrics.TimeSet{}}, topo: newTopology(&cfg)}
	m.Fabric = netmodel.New(&m.Cfg.HW)
	m.SSD = storage.New(&m.Cfg.HW, mem.PageSize)
	m.Fabric.SetObserver(&m.Obs)
	m.SSD.SetObserver(&m.Obs)
	if k := m.topo.k; k > 1 {
		m.ShardStats = make([]ShardStat, k)
		m.resync = make([]resyncQueue, k)
		m.perShard = make([]metrics.Ledger, k)
		for s := range m.perShard {
			m.perShard[s] = metrics.NewLedger(ShardStat{}, "per", "shard."+strconv.Itoa(s)+".")
		}
		m.upSpans = make([]upSpan, k)
		m.cover = make([]int, k)
		if m.topo.r > 1 {
			m.pageVer = make(map[mem.PageID]uint64)
			m.shardVer = make([]map[mem.PageID]uint64, k)
			for s := range m.shardVer {
				m.shardVer[s] = make(map[mem.PageID]uint64)
			}
		}
	}
	return m, nil
}

// MustMachine is NewMachine for known-good configs (presets and tests).
func MustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// AttachTrace installs an event ring on the machine's tracer: paging,
// coherence, pushdown, and fault events interleave in one timeline, spans
// with parentage.
func (m *Machine) AttachTrace(r *trace.Ring) { m.Trace, m.Obs.Ring = r, r }

// AttachMetrics installs (or, with nil, detaches) a histogram registry for
// closing spans to feed.
func (m *Machine) AttachMetrics(reg *metrics.Registry) { m.Obs.Hists = reg }

// AttachFault installs a chaos plan on every layer of the machine: the
// fabric retransmits lost messages, the SSD re-reads failed pages, and the
// TELEPORT runtime (internal/core) observes the crash epochs through
// Machine.Fault. Passing nil detaches everything.
func (m *Machine) AttachFault(p *fault.Plan) {
	m.Fault = p
	if p == nil {
		m.Fabric.SetInjector(nil)
		m.SSD.SetInjector(nil)
		return
	}
	m.Fabric.SetInjector(p)
	m.SSD.SetInjector(p)
}

// Charge advances t by ns nanoseconds and attributes them to component c. The
// span-less leaf charges (fault-handler software path, prefetch transfer,
// pushdown protocol CPU) go through here, so none reads the clock twice.
func (m *Machine) Charge(t *sim.Thread, c metrics.Comp, ns float64) {
	d := sim.FromNs(ns)
	t.Advance(d)
	m.Obs.Times.Add(c, d)
}

// ReadStats adds the machine's counters and gauges to s under their declared
// names: the chaos plan's, the fabric's and the device's, pool stalls, and
// the shard activity both summed over the pool and per shard. The key set is
// fixed per machine.
func (m *Machine) ReadStats(s *metrics.Snapshot) {
	m.Fault.Counters().ReadCounters(s.Counters)
	m.Fabric.ReadCounters(s.Counters)
	m.SSD.ReadCounters(s.Counters)
	s.Counters["pool.stall"] = m.PoolStalls
	shardTotals.Read(s.Counters, m.ShardTotals())
	for i := range m.ShardStats {
		m.perShard[i].Read(s.Counters, &m.ShardStats[i])
	}
	s.Gauges["shard.handoff.depth"] = m.handoffDepth
}

// WaitPoolUp stalls t through a memory-controller outage: a paging
// operation issued while the controller is crashed blocks until the
// controller restarts (the compute pool has nowhere else to get the page
// from). It reports whether a stall happened.
func (m *Machine) WaitPoolUp(t *sim.Thread) bool {
	if _, down := m.Fault.DownAt(fault.Pool(), t.Now()); !down {
		return false
	}
	m.PoolStalls++
	// One stall however many back-to-back windows it spans: the wake instant
	// is the first at which the controller is genuinely up.
	_, stalled := m.stallToHeal(t, 1, func(int) (sim.Time, bool) {
		return m.Fault.UpAt(t.Now(), fault.Pool()), true
	})
	m.Obs.Hists.Hist(metrics.HistPoolStall).Observe(stalled)
	return true
}

// PushHooks is implemented by the TELEPORT runtime (internal/core). While a
// pushdown executes, the compute pool's fault path calls these so the
// coherence protocol can keep the temporary context's page table consistent
// (Figure 9, lines 3–10 and 18–25).
type PushHooks interface {
	// ComputeFaulted runs after the compute pool obtained page p with the
	// given permission via the normal fault path (the memory controller
	// piggybacks the temporary-context invalidation on the fault reply).
	ComputeFaulted(t *sim.Thread, p mem.PageID, write bool)

	// ComputeUpgrade runs when the compute pool holds p read-only and wants
	// write permission; the hook performs the coherence round trip and
	// invalidates the temporary context's copy. It returns once the compute
	// pool may write.
	ComputeUpgrade(t *sim.Thread, p mem.PageID)
}

// Process is a user process whose address space lives in the memory pool.
type Process struct {
	M     *Machine
	Space *mem.Space

	// Cache is the compute place's memory, bounded to Config.CacheBytes: the
	// compute pool's local cache on a DDC, a monolithic server's DRAM over its
	// SSD swap otherwise. It is nil when that memory is unlimited, and then
	// the process's Envs have no pager.
	Cache *PageCache

	// PoolRes is the memory pool's DRAM residency in front of the storage
	// pool; nil when the pool is unbounded.
	PoolRes *PageCache

	// Epoch increments whenever residency or permission state changes, so
	// Env fast paths can cache "this page is fine" safely.
	Epoch uint64

	// PoolDilation stretches every charge of the process's memory-place
	// Envs while more user contexts run than the memory pool has cores
	// (§7.3, Figure 17's diminishing returns). It is 1 until the pushdown
	// runtime, its only writer, moves it as a thread acquires or releases a
	// context, so it holds still while a thread charges inside its slack.
	PoolDilation float64

	hooks PushHooks

	// Recent fault pages: the controller's sequential-stream detector for
	// prefetching (tracks a few concurrent streams, like the DRAM model).
	faultStreams [4]mem.PageID
	nFaultStream int

	// envs heads the list of the process's Envs (Env.next), whose memos of the
	// space's frames repoint follows and Release clears.
	envs *Env

	stats ProcStats
}

// ProcStats aggregates per-process paging activity; a snapshot exports the
// tagged fields, under the tag's name.
type ProcStats struct {
	CacheHits      int64
	CacheMisses    int64
	RemoteFaults   int64 `ctr:"fault.remote"` // pages demand-fetched from the memory pool
	Prefetched     int64 `ctr:"prefetch"`
	Writebacks     int64 // dirty evictions written back over the fabric
	StorageInFault int64 `ctr:"fault.storage"` // memory pool pages faulted in from storage
	StorageEvicts  int64
	SSDFaults      int64 `ctr:"fault.ssd"` // monolithic swap-ins
	Upgrades       int64 `ctr:"upgrade"`   // read→write permission upgrades
	Evictions      int64 `ctr:"eviction"`  // pages the compute cache evicted to make room
}

var procLedger = metrics.NewLedger(ProcStats{}, "ctr", "")

// NewProcess creates a process on m with an empty address space.
func (m *Machine) NewProcess() *Process {
	p := &Process{M: m, Space: mem.NewSpace(), PoolDilation: 1}
	if m.Cfg.CacheBytes > 0 {
		p.Cache = p.newCache(int(m.Cfg.CacheBytes / mem.PageSize))
	}
	if m.Cfg.MemoryPoolBytes > 0 {
		p.PoolRes = p.newCache(int(m.Cfg.MemoryPoolBytes / mem.PageSize))
	}
	return p
}

// Attach makes the process's address space, still empty, a copy-on-write clone
// of a dataset image (mem.Space.Attach): the process then holds the dataset at
// the addresses it was built at, having paid for the frame table alone.
func (p *Process) Attach(img *mem.Image) { p.Space.Attach(img, p.repoint) }

// repoint follows a page out of the image (mem.Space.Attach's moved): an Env
// whose stream slot memoised the image's frame — the Env that is storing, or
// any other of the process, which would otherwise go on reading the bytes as
// they were before the store — takes the page's own frame in its place. A
// store to an image page is rare, so the walk over every Env is not a cost.
func (p *Process) repoint(from, to []byte) {
	old, own := (*[mem.PageSize]byte)(from), (*[mem.PageSize]byte)(to)
	for e := p.envs; e != nil; e = e.next {
		for i, f := range e.frames {
			if f == old {
				e.frames[i] = own
			}
		}
	}
}

// adopt notes a new Env of the process.
func (p *Process) adopt(e *Env) { e.next, p.envs = p.envs, e }

// Release ends the process's life once its results have been read: the address
// space's frames go back to its arena (mem.Space.Release) for the next process
// that shares it, and an access through the process — its space, or an Env of
// it, which forgets the frames and the page it had memoised — panics from then
// on. What was counted stays readable: the statistics, the caches' residency,
// the machine, what the space allocated.
func (p *Process) Release() {
	for e := p.envs; e != nil; e = e.next {
		e.nStream, e.fpValid = 0, false
		clear(e.frames[:])
	}
	p.Space.Release()
}

// newCache returns a page cache over the process's address space.
func (p *Process) newCache(capPages int) *PageCache {
	c := NewPageCache(capPages)
	c.space = p.Space
	return c
}

// SetPushHooks installs (or clears, with nil) the TELEPORT coherence hooks.
func (p *Process) SetPushHooks(h PushHooks) {
	p.hooks = h
	p.Epoch++
}

// Stats returns the accumulated paging statistics.
func (p *Process) Stats() ProcStats { return p.stats }

// ReadStats adds the process's counters to s under their declared names.
func (p *Process) ReadStats(s *metrics.Snapshot) { procLedger.Read(s.Counters, &p.stats) }

// seqFault reports whether pg directly extends one of the recent fault
// streams (prefetch trigger). Prefetched pages themselves extend the stream
// (pg matching stream+k for the prefetch window still counts via noteFault
// updates on demand faults only).
func (p *Process) seqFault(pg mem.PageID) bool {
	for i := 0; i < p.nFaultStream; i++ {
		d := int64(pg) - int64(p.faultStreams[i])
		if d >= 1 && d <= 8 {
			return true
		}
	}
	return false
}

// noteFault records a demand fault in the stream tracker.
func (p *Process) noteFault(pg mem.PageID) {
	for i := 0; i < p.nFaultStream; i++ {
		d := int64(pg) - int64(p.faultStreams[i])
		if d >= 0 && d <= 8 {
			p.faultStreams[i] = pg
			return
		}
	}
	if p.nFaultStream < len(p.faultStreams) {
		p.faultStreams[p.nFaultStream] = pg
		p.nFaultStream++
		return
	}
	copy(p.faultStreams[:], p.faultStreams[1:])
	p.faultStreams[len(p.faultStreams)-1] = pg
}

// ResizeCache rebounds the compute place's cache to the given byte budget,
// typically after loading a dataset so a platform's cache is a fixed fraction
// of the working set. It is a no-op on machines with unlimited local memory.
func (p *Process) ResizeCache(bytes int64) {
	if p.Cache == nil {
		return
	}
	pages := int(bytes / mem.PageSize)
	if pages < 1 {
		pages = 1
	}
	p.Cache.SetCapacity(pages)
	p.M.Cfg.CacheBytes = int64(pages) * mem.PageSize
	p.Epoch++
}

// ResizePool rebounds the memory pool's DRAM (Figure 15's sweep).
func (p *Process) ResizePool(bytes int64) {
	if !p.M.Cfg.Disaggregated {
		return
	}
	pages := int(bytes / mem.PageSize)
	if pages < 1 {
		pages = 1
	}
	if p.PoolRes == nil {
		p.PoolRes = p.newCache(pages)
	} else {
		p.PoolRes.SetCapacity(pages)
	}
	p.M.Cfg.MemoryPoolBytes = int64(pages) * mem.PageSize
	p.Epoch++
}

// EnsureInPool makes page pg resident in the memory pool's DRAM, paging it
// in from the storage pool if necessary and charging t for the I/O. Write
// marks the pool copy dirty (it will need a storage write-back on eviction).
func (p *Process) EnsureInPool(t *sim.Thread, pg mem.PageID, write bool) {
	p.ensureInPool(t, pg, write, -1)
}

// PoolHit reports whether page pg is resident in the memory pool's DRAM —
// always, when the pool is unbounded — and never faults. With apply, a
// resident page takes the access as EnsureInPool's hit does: it moves to the
// head of the pool's LRU order and, for a write, is marked dirty.
func (p *Process) PoolHit(pg mem.PageID, write, apply bool) bool {
	return p.PoolRes == nil || p.PoolRes.take(pg, write, apply)
}

// ensureInPool is EnsureInPool with optional pre-routing: served ≥ 0 means
// the caller already routed this logical access through AccessPage (a remote
// fault routes once for its whole compute→pool→storage chain), so the
// pool-miss path reuses that shard instead of routing — and counting a
// failover — a second time for the same read. The whole-controller outage
// stall still applies either way: the storage fault needs the controller up.
func (p *Process) ensureInPool(t *sim.Thread, pg mem.PageID, write bool, served int) {
	// A pool DRAM hit — every access to an unbounded pool is one — is free by
	// design: only faults charge I/O.
	if p.PoolHit(pg, write, true) {
		return
	}
	// Recursive fault to the storage pool (§2.1): controller message plus
	// the device access. A crashed controller stalls the fault until it
	// restarts; on a sharded pool the fault is served by the page's shard,
	// failing over to a live replica during the shard's outage.
	if served < 0 {
		served = p.M.AccessPage(t, pg, write)
	} else {
		p.M.WaitPoolUp(t)
	}
	p.stats.StorageInFault++
	sp := p.M.Obs.Begin(t, trace.KindStorageFault, uint64(pg), trace.Flag(write))
	p.M.Fabric.RoundTrip(t, faultReqBytes, pageRespBytes, netmodel.ClassStorage)
	p.M.Charge(t, metrics.CompFaultSW, p.M.Cfg.HW.FaultHandleNs)
	p.M.SSD.ReadPage(t, uint64(pg))
	if v, ok := p.PoolRes.Insert(pg, true, write); ok {
		p.stats.StorageEvicts++
		if v.Dirty {
			p.M.Fabric.Send(t, writebackBytes, netmodel.ClassStorage)
			p.M.SSD.WritePage(t, uint64(v.Page))
		}
	}
	p.M.ReplicatePage(t, pg, served)
	p.M.Obs.End(t, sp)
	p.Epoch++
}

// WritebackPage models the compute pool flushing one dirty page to the
// memory pool (eviction write-back, syncmem, eager sync).
func (p *Process) WritebackPage(t *sim.Thread, pg mem.PageID) {
	served := p.M.AccessPage(t, pg, true)
	p.stats.Writebacks++
	sp := p.M.Obs.Begin(t, trace.KindWriteback, uint64(pg), 0)
	p.M.Fabric.Send(t, writebackBytes, netmodel.ClassWriteback)
	p.M.Obs.End(t, sp)
	p.M.ReplicatePage(t, pg, served)
	p.Cache.ClearDirty(pg)
	p.Epoch++
}

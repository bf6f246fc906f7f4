package ddc

import (
	"encoding/binary"
	"math"
	"math/bits"

	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Place says which resource pool a simulated thread is executing in.
type Place int

// Execution places.
const (
	PlaceCompute Place = iota
	PlaceMemory
)

// String names the place.
func (p Place) String() string {
	if p == PlaceMemory {
		return "memory"
	}
	return "compute"
}

// Pager services accesses that need residency or permission work. The
// default pager implements the monolithic and base-DDC compute-pool paths;
// internal/core installs a memory-place pager for pushdown execution.
type Pager interface {
	EnsurePage(e *Env, page mem.PageID, write bool)

	// Repeat stands for n further EnsurePage(e, page, write) calls, the last
	// of them at the thread's present time, each finding the page exactly as
	// the call before it left it (Rows accounts the quiet rows of a loop with
	// it). It reports whether the pager can: one declines when such a call is
	// not a pure hit, or when what a call does depends on the time or on how
	// many came before. A pure hit may still move the page to the head of an
	// LRU order — the compute cache's, a bounded memory pool's — and set its
	// dirty bit, since n such calls leave both where one does. With n == 0 it
	// only answers, and a pager that declines changes nothing.
	Repeat(e *Env, page mem.PageID, write bool, n int) bool
}

// Env is the execution environment of one simulated thread inside one
// process: it knows where the thread runs, at what clock, and routes every
// data access through the paging and cost models. Application code (the
// DBMS, graph engine, MapReduce) performs all reads/writes through an Env.
type Env struct {
	T     *sim.Thread
	P     *Process
	Place Place

	// ClockGHz is the executing CPU's clock; Dilation (optional) scales CPU
	// cost up when user contexts outnumber memory-pool cores (§7.3).
	ClockGHz float64
	Dilation func() float64

	pager Pager
	local bool // the compute pager of a monolithic machine (see paged)

	// Single-page fast path: the pager already granted this page at this
	// grade, and nothing in the process has mutated since.
	fpValid bool
	fpWrite bool
	fpPage  mem.PageID
	fpEpoch uint64

	// DRAM line model state: a small set of hardware-prefetch streams,
	// so interleaved sequential accesses (scan a column, append to an
	// output) each stream at full bandwidth like a real prefetcher, plus a
	// direct-mapped on-chip cache so hot small structures (group tables,
	// dimension indexes) do not pay DRAM latency per access.
	//
	// frames[i] memoises the frame of the page stream slot i's line lies in.
	// A slot takes a new frame only when its line moves to another page: a
	// page keeps its frame for the life of the Space, except that the first
	// store to a page still shared with a dataset image moves it to a frame of
	// its own, and then Process.repoint moves the memo. last is the slot the
	// most recent line charge ended on.
	lineShift uint8 // log2(HW.DRAMLineBytes)
	streams   [dramStreams]uint64
	frames    [dramStreams]*[mem.PageSize]byte
	nStream   int
	sClock    int
	last      int
	l2        []uint64

	// Access counters (per env, i.e. per simulated thread).
	reads, writes int64

	next *Env // the process's list of its Envs (Process.adopt)
}

// NewEnv returns a compute-place environment for t.
func (p *Process) NewEnv(t *sim.Thread) *Env {
	e := &Env{
		T: t, P: p, Place: PlaceCompute,
		ClockGHz:  p.M.Cfg.HW.ComputeClockGHz,
		pager:     computePager{},
		local:     !p.M.Cfg.Disaggregated,
		lineShift: p.lineShift(),
	}
	p.adopt(e)
	return e
}

// RecycleMemoryEnv returns a memory-place environment using a caller-supplied
// pager (TELEPORT's temporary-context fault handler), built in place over
// old, an Env of p a finished pushed function left behind (nil allocates a new
// one), so a caller running many short functions keeps one Env per user
// context instead of allocating one per call. The result is in exactly the
// state a new Env would be: every field is rebuilt, and only its place in the
// process's list and the on-chip cache model's storage are kept, the latter
// cleared — a new Env allocates it zeroed on its first access, and it is by
// far the largest thing an Env owns.
func (p *Process) RecycleMemoryEnv(old *Env, t *sim.Thread, pager Pager) *Env {
	e := old
	if e == nil {
		e = &Env{}
		p.adopt(e)
	}
	l2 := e.l2
	if len(l2) != p.M.Cfg.HW.CacheLines {
		l2 = nil
	}
	clear(l2)
	*e = Env{
		T: t, P: p, Place: PlaceMemory,
		ClockGHz:  p.M.Cfg.HW.MemoryClockGHz,
		pager:     pager,
		lineShift: p.lineShift(),
		l2:        l2,
		next:      e.next,
	}
	return e
}

// lineShift is log2 of the DRAM line size (hw.Config.Validate makes it a
// power of two no larger than a page).
func (p *Process) lineShift() uint8 {
	return uint8(bits.TrailingZeros(uint(p.M.Cfg.HW.DRAMLineBytes)))
}

// Accesses returns the environment's read and write access counts.
func (e *Env) Accesses() (reads, writes int64) { return e.reads, e.writes }

// Compute charges n abstract CPU operations at the environment's clock,
// scaled by the dilation factor if one is installed.
func (e *Env) Compute(n float64) {
	ns := hw.OpNs(e.ClockGHz, n)
	if e.Dilation != nil {
		ns *= e.Dilation()
	}
	e.T.AdvanceNs(ns)
}

// access is the whole model for one access of n ≥ 1 bytes at a, in one pass:
// count it, run the paging state machine, charge DRAM cost. It returns the
// frame of the page the access lies in, to decode from or store to — after
// the charge, which may have yielded to a thread that wrote the same bytes —
// or nil when the access spans pages. This is the path for an access inside
// one DRAM line; touch serves the rest with the same steps.
func (e *Env) access(a mem.Addr, n int, write bool) *[mem.PageSize]byte {
	l := uint64(a) >> e.lineShift
	if (uint64(a)+uint64(n)-1)>>e.lineShift != l {
		return e.touch(a, n, write)
	}
	pg := mem.PageOf(a)
	if write {
		e.writes++
		if pg < e.P.Space.SharedEnd() {
			e.P.Space.Own(pg) // the frame returned below is stored to
		}
	} else {
		e.reads++
	}
	if !e.fastPage(pg, write) {
		if e.paged() {
			e.pager.EnsurePage(e, pg, write)
		}
		e.fpValid, e.fpPage, e.fpWrite, e.fpEpoch = true, pg, write, e.P.Epoch
	}
	// The slot the previous charge ended on is the ordered scan's first
	// match for its line: when that charge picked it, no earlier slot held
	// the line or its predecessor, and no slot has moved since.
	slot := e.last
	if slot >= e.nStream || e.streams[slot] != l {
		var ns float64
		if slot, ns = e.chargeLine(l); ns > 0 {
			e.advance(ns)
		}
	}
	return e.frames[slot]
}

// touch is access for any span of bytes: every page through the pager,
// every line through chargeLine, one charge for the sum.
func (e *Env) touch(a mem.Addr, n int, write bool) *[mem.PageSize]byte {
	first, last := mem.PageSpan(a, n)
	if write {
		e.writes++
		if first == last && first < e.P.Space.SharedEnd() {
			e.P.Space.Own(first) // a span of pages is stored through the Space
		}
	} else {
		e.reads++
	}
	if first != last || !e.fastPage(last, write) {
		if e.paged() {
			for pg := first; pg <= last; pg++ {
				e.pager.EnsurePage(e, pg, write)
			}
		}
		e.fpValid, e.fpPage, e.fpWrite, e.fpEpoch = true, last, write, e.P.Epoch
	}
	var slot int
	var ns float64
	for l, end := uint64(a)>>e.lineShift, (uint64(a)+uint64(n)-1)>>e.lineShift; l <= end; l++ {
		var c float64
		slot, c = e.chargeLine(l)
		ns += c
	}
	if ns > 0 {
		e.advance(ns)
	}
	if first != last {
		return nil
	}
	return e.frames[slot]
}

// fastPage reports whether the pager already granted pg at this grade and
// nothing in the process has changed since.
func (e *Env) fastPage(pg mem.PageID, write bool) bool {
	return pg == e.fpPage && e.fpValid && e.fpEpoch == e.P.Epoch && (!write || e.fpWrite)
}

// paged reports whether the pager has anything to do: the compute pager of
// a monolithic process without a page cache returns at once.
func (e *Env) paged() bool { return !e.local || e.P.Cache != nil }

// advance charges an access's DRAM cost to the thread.
func (e *Env) advance(ns float64) {
	if e.Dilation != nil {
		ns *= e.Dilation()
	}
	e.T.AdvanceNs(ns)
}

// InvalidateFastPath drops the env's cached page state; the coherence layer
// calls this indirectly by bumping the process epoch.
func (e *Env) InvalidateFastPath() {
	e.fpValid = false
}

// dramStreams is the number of concurrent hardware-prefetch streams the
// DRAM model tracks per thread (real cores track 8–32).
const dramStreams = 8

// chargeLine implements the line-granular DRAM model for one line: a line
// that sits in or directly after one of the thread's active access streams
// is served at streaming bandwidth (the hardware prefetcher); anything else
// pays an on-chip cache hit or a full random DRAM access and starts a new
// stream. The streams are scanned in slot order and the first match wins.
// It returns the slot that holds l afterwards and the cost in nanoseconds.
func (e *Env) chargeLine(l uint64) (slot int, ns float64) {
	perPage := mem.PageShift - e.lineShift // log2(lines per page)
	for i, s := range e.streams[:e.nStream] {
		switch l - s {
		case 0:
			e.last = i
			return i, 0 // still in this line: effectively L1
		case 1:
			e.streams[i], e.last = l, i
			if l&(1<<perPage-1) == 0 { // the stream crossed into the next page
				e.frames[i] = e.frameOf(l >> perPage)
			}
			if e.l2 != nil {
				e.l2[l&uint64(len(e.l2)-1)] = l
			}
			return i, e.P.M.Cfg.HW.DRAMSeqLineNs
		}
	}
	// Not on a stream: an on-chip cache hit if the line was touched
	// recently, a full DRAM access otherwise; either way a new stream
	// starts (replace round-robin).
	cfg := &e.P.M.Cfg.HW
	if e.l2 == nil && cfg.CacheLines > 0 {
		e.l2 = make([]uint64, cfg.CacheLines)
	}
	ns = cfg.DRAMRandNs
	if e.l2 != nil {
		if c := &e.l2[l&uint64(len(e.l2)-1)]; *c == l {
			ns = cfg.CacheHitNs
		} else {
			*c = l
		}
	}
	if e.nStream < dramStreams {
		slot = e.nStream
		e.nStream++
	} else {
		slot = e.sClock
		e.sClock = (e.sClock + 1) % dramStreams
	}
	e.streams[slot], e.last = l, slot
	e.frames[slot] = e.frameOf(l >> perPage)
	return slot, ns
}

// frameOf borrows page pg's frame for a stream slot's memo.
func (e *Env) frameOf(pg uint64) *[mem.PageSize]byte {
	return (*[mem.PageSize]byte)(e.P.Space.Frame(mem.PageID(pg)))
}

// ReadU64 reads a uint64 through the paging model.
func (e *Env) ReadU64(a mem.Addr) uint64 {
	if f := e.access(a, 8, false); f != nil {
		return binary.LittleEndian.Uint64(f[a&(mem.PageSize-1):])
	}
	return e.P.Space.ReadU64(a)
}

// WriteU64 writes a uint64 through the paging model.
func (e *Env) WriteU64(a mem.Addr, v uint64) {
	if f := e.access(a, 8, true); f != nil {
		binary.LittleEndian.PutUint64(f[a&(mem.PageSize-1):], v)
		return
	}
	e.P.Space.WriteU64(a, v)
}

// ReadI64 reads an int64.
func (e *Env) ReadI64(a mem.Addr) int64 { return int64(e.ReadU64(a)) }

// WriteI64 writes an int64.
func (e *Env) WriteI64(a mem.Addr, v int64) { e.WriteU64(a, uint64(v)) }

// ReadF64 reads a float64.
func (e *Env) ReadF64(a mem.Addr) float64 { return math.Float64frombits(e.ReadU64(a)) }

// WriteF64 writes a float64.
func (e *Env) WriteF64(a mem.Addr, v float64) { e.WriteU64(a, math.Float64bits(v)) }

// ReadU32 reads a uint32.
func (e *Env) ReadU32(a mem.Addr) uint32 {
	if f := e.access(a, 4, false); f != nil {
		return binary.LittleEndian.Uint32(f[a&(mem.PageSize-1):])
	}
	return e.P.Space.ReadU32(a)
}

// WriteU32 writes a uint32.
func (e *Env) WriteU32(a mem.Addr, v uint32) {
	if f := e.access(a, 4, true); f != nil {
		binary.LittleEndian.PutUint32(f[a&(mem.PageSize-1):], v)
		return
	}
	e.P.Space.WriteU32(a, v)
}

// ReadI32 reads an int32.
func (e *Env) ReadI32(a mem.Addr) int32 { return int32(e.ReadU32(a)) }

// ReadU8 reads one byte.
func (e *Env) ReadU8(a mem.Addr) byte { return e.access(a, 1, false)[a&(mem.PageSize-1)] }

// WriteU8 writes one byte.
func (e *Env) WriteU8(a mem.Addr, v byte) { e.access(a, 1, true)[a&(mem.PageSize-1)] = v }

// freeRun returns how many of up to max further size-byte elements at a —
// the address after an element access just served from frame f — ReadU64s
// may decode from f without re-entering the model: those that end
// inside the line that access ended on, provided the process epoch has not
// moved since (the charge may have yielded to a thread that evicted or
// downgraded the page). For each of them access would find the fast-path
// page and the last slot on its line, charge nothing and change no state;
// nothing in the run advances virtual time, so the one check covers it.
func (e *Env) freeRun(a mem.Addr, size, max int) int {
	if e.fpEpoch != e.P.Epoch {
		return 0
	}
	lineEnd := ((uint64(a)-1)>>e.lineShift + 1) << e.lineShift
	if k := int(lineEnd-uint64(a)) / size; k < max {
		return k
	}
	return max
}

// ReadU64s reads len(dst) consecutive uint64s starting at a. It is
// element-for-element equivalent to that many ReadU64 calls — the paging
// state machine and DRAM charges run in the identical order — but the words
// after the first in an already-charged line decode straight from its frame.
func (e *Env) ReadU64s(a mem.Addr, dst []uint64) {
	for i := 0; i < len(dst); {
		f := e.access(a, 8, false)
		if f == nil {
			dst[i] = e.P.Space.ReadU64(a)
			i, a = i+1, a+8
			continue
		}
		k := 1 + e.freeRun(a+8, 8, len(dst)-i-1)
		e.reads += int64(k - 1)
		for ; k > 0; k-- {
			dst[i] = binary.LittleEndian.Uint64(f[a&(mem.PageSize-1):])
			i, a = i+1, a+8
		}
	}
}

// ReadBytes copies n bytes at a into buf (len(buf) == n).
func (e *Env) ReadBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	e.access(a, len(buf), false)
	e.P.Space.ReadAt(a, buf)
}

// WriteBytes copies buf into the space at a.
func (e *Env) WriteBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	e.access(a, len(buf), true)
	e.P.Space.WriteAt(a, buf)
}

// computePager implements the monolithic and base-DDC compute-place paths.
type computePager struct{}

func (computePager) EnsurePage(e *Env, pg mem.PageID, write bool) {
	p := e.P
	if !p.M.Cfg.Disaggregated {
		ensureLocal(e, pg, write)
		return
	}
	if n := p.Cache.hit(pg); n != nil {
		p.stats.CacheHits++
		switch {
		case !write:
		case n.writable:
			n.dirty = true
		default:
			// The upgrade's round trip may yield to a thread that evicts the
			// page, so the dirty bit goes to whatever node holds it afterwards.
			upgradeWrite(e, pg)
			p.Cache.MarkDirty(pg)
		}
		return
	}
	p.stats.CacheMisses++
	remoteFault(e, pg, write)
}

// Repeat accounts n hits on a resident page: the hit count, the page's place
// at the head of the LRU order and, for a write, its dirty bit. A page that is
// not resident, or is read-only under a write, is a fault or an upgrade.
func (computePager) Repeat(e *Env, pg mem.PageID, write bool, n int) bool {
	c := e.P.Cache
	if c == nil {
		return true
	}
	ent := c.entry(pg)
	if ent == nil || write && !ent.writable {
		return false
	}
	if n > 0 {
		e.P.stats.CacheHits += int64(n)
		c.moveToFront(int32(pg))
		ent.dirty = ent.dirty || write
	}
	return true
}

// ensureLocal is the monolithic path: free when DRAM is unlimited,
// otherwise an OS page cache over the local SSD.
func ensureLocal(e *Env, pg mem.PageID, write bool) {
	p := e.P
	if p.Cache == nil {
		return
	}
	if n := p.Cache.hit(pg); n != nil {
		p.stats.CacheHits++
		if write {
			n.dirty = true
		}
		return
	}
	p.stats.CacheMisses++
	p.stats.SSDFaults++
	p.M.Charge(e.T, metrics.CompFaultSW, p.M.Cfg.HW.FaultHandleNs)
	p.M.SSD.ReadPage(e.T, uint64(pg))
	if v, ok := p.Cache.Insert(pg, true, write); ok && v.Dirty {
		p.M.SSD.WritePage(e.T, uint64(v.Page))
	}
	p.Epoch++
}

// upgradeWrite grants the compute pool write permission on a page it holds
// read-only. Outside pushdown the compute pool is the only writer, so the
// upgrade is a local page-table operation; during pushdown the TELEPORT
// hooks perform the coherence round trip (Figure 9, (R,R) → (W,∅)).
func upgradeWrite(e *Env, pg mem.PageID) {
	p := e.P
	p.stats.Upgrades++
	if p.hooks != nil {
		p.hooks.ComputeUpgrade(e.T, pg)
	}
	p.Cache.SetWritable(pg, true)
	p.Epoch++
}

// remoteFault pages pg in from the memory pool (§2.1's fault path),
// applying the pushdown hook and the base-DDC sequential prefetch.
func remoteFault(e *Env, pg mem.PageID, write bool) {
	p := e.P
	cfg := &p.M.Cfg.HW
	// A remote fault issued during a memory-controller outage has nowhere
	// to go: the compute pool stalls until the controller restarts. On a
	// sharded pool the fetch instead fails over to a live replica of the
	// page's shard when the primary alone is unusable. The fault is one
	// logical read, so it routes — and, during an outage, counts a
	// failover — exactly once, and the pool-miss leg below reuses the
	// serving shard instead of routing again.
	served := p.M.AccessPage(e.T, pg, write)
	p.stats.RemoteFaults++
	sp := p.M.Obs.Begin(e.T, trace.KindRemoteFault, uint64(pg), trace.Flag(write))
	p.M.Fabric.RoundTrip(e.T, faultReqBytes, pageRespBytes, netmodel.ClassPageFault)
	p.M.Charge(e.T, metrics.CompFaultSW, cfg.FaultHandleNs)
	p.ensureInPool(e.T, pg, write, served)
	if p.hooks != nil {
		p.hooks.ComputeFaulted(e.T, pg, write)
	}
	p.cachePage(e.T, pg, write, write)

	// Sequential prefetch (base DDC only; suppressed during pushdown, when
	// the coherence protocol owns the page tables). The controller tracks
	// a few fault streams so interleaved scans still prefetch.
	depth := p.M.Cfg.PrefetchDepth
	if depth > 0 && p.hooks == nil && p.seqFault(pg) {
		_, last, ok := p.Space.Extent()
		for i := 1; i <= depth; i++ {
			next := pg + mem.PageID(i)
			if !ok || next > last || p.Cache.Contains(next) {
				break
			}
			if p.PoolRes != nil && !p.PoolRes.Contains(next) {
				break // don't drag the storage pool into a prefetch
			}
			p.stats.Prefetched++
			p.M.Charge(e.T, metrics.CompPrefetch, float64(mem.PageSize)/cfg.NetBandwidthGBs)
			p.cachePage(e.T, next, false, false)
		}
	}
	p.M.Obs.End(e.T, sp)
	p.noteFault(pg)
	p.Epoch++
}

// cachePage makes pg resident in the compute cache with the given bits,
// charging t for the eviction that may cause: a dirty victim is written
// back to the memory pool over the fabric.
func (p *Process) cachePage(t *sim.Thread, pg mem.PageID, writable, dirty bool) {
	v, ok := p.Cache.Insert(pg, writable, dirty)
	if !ok {
		return
	}
	p.NoteEviction(t, v)
	if v.Dirty {
		p.stats.Writebacks++
		p.M.Fabric.Send(t, writebackBytes, netmodel.ClassWriteback)
		p.M.ReplicatePage(t, v.Page, p.M.serveShard(t.Now(), v.Page))
	}
}

// NoteEviction accounts v, just pushed out of the compute cache; writing a
// dirty victim back is the caller's.
func (p *Process) NoteEviction(t *sim.Thread, v Evicted) {
	p.stats.Evictions++
	p.M.Obs.Instant(t, trace.KindEviction, uint64(v.Page), trace.Flag(v.Dirty))
}

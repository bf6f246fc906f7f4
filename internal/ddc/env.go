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

	// Single-page fast path: valid while nothing in the process mutated.
	fpValid bool
	fpWrite bool
	fpPage  mem.PageID
	fpEpoch uint64

	// Hot-line memo (the per-thread one-entry software TLB): the DRAM line
	// the last touch ended on, plus a zero-copy borrow of its page frame.
	// A repeat access entirely inside this line, with the process epoch
	// unchanged, is provably free under the models — the fp fast path skips
	// the pager and chargeDRAM serves an in-stream line at zero cost with
	// no state mutation — so the accessors decode straight from the frame.
	// Validity: hot* is (re)anchored by every touch, hotValid implies
	// fpValid with the same page and write grade, and the epoch check
	// catches every pager/coherence event (eviction, rollback, upgrade),
	// exactly as it does for the fp fast path.
	hotValid  bool
	hotWrite  bool
	hotLine   uint64
	hotPage   mem.PageID
	hotFrame  []byte // fetched lazily on first hit; nil until then
	lineB     uint64 // cached HW.DRAMLineBytes
	lineShift uint8  // log2(lineB) when it is a power of two, else 255

	// DRAM line model state: a small set of hardware-prefetch streams,
	// so interleaved sequential accesses (scan a column, append to an
	// output) each stream at full bandwidth like a real prefetcher, plus a
	// direct-mapped on-chip cache so hot small structures (group tables,
	// dimension indexes) do not pay DRAM latency per access.
	streams [dramStreams]uint64
	nStream int
	sClock  int
	l2      []uint64

	// Access counters (per env, i.e. per simulated thread).
	reads, writes int64
}

// NewEnv returns a compute-place environment for t.
func (p *Process) NewEnv(t *sim.Thread) *Env {
	e := &Env{
		T: t, P: p, Place: PlaceCompute,
		ClockGHz: p.M.Cfg.HW.ComputeClockGHz,
		pager:    computePager{},
	}
	e.initLine()
	return e
}

// NewMemoryEnv returns a memory-place environment using a caller-supplied
// pager (TELEPORT's temporary-context fault handler).
func (p *Process) NewMemoryEnv(t *sim.Thread, pager Pager) *Env {
	return p.RecycleMemoryEnv(nil, t, pager)
}

// RecycleMemoryEnv is NewMemoryEnv built in place over old, an Env a
// finished pushed function left behind (nil allocates a new one), so a
// caller running many short functions keeps one Env per user context
// instead of allocating one per call. The result is in exactly the state a
// new Env would be: every field is rebuilt, and only the on-chip cache
// model's storage is kept, cleared — a new Env allocates it zeroed on its
// first access, and it is by far the largest thing an Env owns.
func (p *Process) RecycleMemoryEnv(old *Env, t *sim.Thread, pager Pager) *Env {
	e := old
	if e == nil {
		e = &Env{}
	}
	l2 := e.l2
	if len(l2) != p.M.Cfg.HW.CacheLines {
		l2 = nil
	}
	clear(l2)
	*e = Env{
		T: t, P: p, Place: PlaceMemory,
		ClockGHz: p.M.Cfg.HW.MemoryClockGHz,
		pager:    pager,
		l2:       l2,
	}
	e.initLine()
	return e
}

// initLine caches the DRAM line geometry (a shift when the configured line
// size is a power of two, which it always is on the shipped configs).
func (e *Env) initLine() {
	e.lineB = uint64(e.P.M.Cfg.HW.DRAMLineBytes)
	e.lineShift = 255
	if e.lineB > 0 && e.lineB&(e.lineB-1) == 0 {
		e.lineShift = uint8(bits.TrailingZeros64(e.lineB))
	}
}

// lineOf maps an address to its DRAM line index.
func (e *Env) lineOf(x uint64) uint64 {
	if e.lineShift != 255 {
		return x >> e.lineShift
	}
	return x / e.lineB
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

// touch runs the paging state machine and charges DRAM cost for an access
// of n bytes at addr.
func (e *Env) touch(addr mem.Addr, n int, write bool) {
	if write {
		e.writes++
	} else {
		e.reads++
	}
	first, last := mem.PageSpan(addr, n)
	if first == last && e.fpValid && first == e.fpPage && e.fpEpoch == e.P.Epoch &&
		(!write || e.fpWrite) {
		e.chargeDRAM(addr, n, first, first == last)
		return
	}
	for pg := first; pg <= last; pg++ {
		e.pager.EnsurePage(e, pg, write)
	}
	e.fpValid, e.fpPage, e.fpWrite, e.fpEpoch = true, last, write, e.P.Epoch
	e.chargeDRAM(addr, n, first, first == last)
}

// hotR returns the frame bytes at a when a read of n bytes falls entirely
// inside the hot line with the epoch unchanged (then the access is free and
// mutation-free by construction; only the read counter advances).
func (e *Env) hotR(a mem.Addr, n int) ([]byte, bool) {
	if !e.hotValid || e.fpEpoch != e.P.Epoch {
		return nil, false
	}
	if e.lineOf(uint64(a)) != e.hotLine || e.lineOf(uint64(a)+uint64(n)-1) != e.hotLine {
		return nil, false
	}
	if e.hotFrame == nil {
		e.hotFrame = e.P.Space.Frame(e.hotPage)
	}
	e.reads++
	return e.hotFrame[a&(mem.PageSize-1):], true
}

// hotW is hotR for writes: additionally requires the page was anchored with
// write permission (mirroring the fp fast path's fpWrite condition).
func (e *Env) hotW(a mem.Addr, n int) ([]byte, bool) {
	if !e.hotValid || !e.hotWrite || e.fpEpoch != e.P.Epoch {
		return nil, false
	}
	if e.lineOf(uint64(a)) != e.hotLine || e.lineOf(uint64(a)+uint64(n)-1) != e.hotLine {
		return nil, false
	}
	if e.hotFrame == nil {
		e.hotFrame = e.P.Space.Frame(e.hotPage)
	}
	e.writes++
	return e.hotFrame[a&(mem.PageSize-1):], true
}

// InvalidateFastPath drops the env's cached page state; the coherence layer
// calls this indirectly by bumping the process epoch.
func (e *Env) InvalidateFastPath() {
	e.fpValid = false
	e.hotValid = false
}

// dramStreams is the number of concurrent hardware-prefetch streams the
// DRAM model tracks per thread (real cores track 8–32).
const dramStreams = 8

// chargeDRAM implements the line-granular DRAM model: a line that sits in
// or directly after one of the thread's active access streams is served at
// streaming bandwidth (the hardware prefetcher); anything else pays a full
// random DRAM access and starts a new stream.
//
// It also (re)anchors the hot-line memo: its last line always ends up on an
// active prefetch stream, so a repeat access inside that line would charge
// zero and mutate nothing — the condition the hot-path accessors exploit.
// Multi-page accesses don't anchor (the fp page and the line's page must
// agree).
func (e *Env) chargeDRAM(addr mem.Addr, n int, pg mem.PageID, single bool) {
	cfg := &e.P.M.Cfg.HW
	firstLine := e.lineOf(uint64(addr))
	lastLine := e.lineOf(uint64(addr) + uint64(n) - 1)
	if single {
		e.hotValid = true
		e.hotLine = lastLine
		e.hotWrite = e.fpWrite
		if pg != e.hotPage {
			// Defer the frame borrow to the first hit: loops that never
			// repeat a line pay nothing for the memo. Frame identities are
			// stable, so a same-page re-anchor keeps the borrowed slice.
			e.hotPage, e.hotFrame = pg, nil
		}
	} else {
		e.hotValid = false
	}
	if e.l2 == nil && cfg.CacheLines > 0 {
		e.l2 = make([]uint64, cfg.CacheLines)
	}
	mask := uint64(len(e.l2) - 1)
	var ns float64
lines:
	for l := firstLine; l <= lastLine; l++ {
		for i := 0; i < e.nStream; i++ {
			switch e.streams[i] {
			case l:
				continue lines // still in this line: effectively L1
			case l - 1:
				ns += cfg.DRAMSeqLineNs
				e.streams[i] = l
				if e.l2 != nil {
					e.l2[l&mask] = l
				}
				continue lines
			}
		}
		// Not on a stream: an on-chip cache hit if the line was touched
		// recently, a full DRAM access otherwise; either way a new stream
		// starts (replace round-robin).
		if e.l2 != nil && e.l2[l&mask] == l {
			ns += cfg.CacheHitNs
		} else {
			ns += cfg.DRAMRandNs
			if e.l2 != nil {
				e.l2[l&mask] = l
			}
		}
		if e.nStream < dramStreams {
			e.streams[e.nStream] = l
			e.nStream++
		} else {
			e.streams[e.sClock] = l
			e.sClock = (e.sClock + 1) % dramStreams
		}
	}
	if ns > 0 {
		if e.Dilation != nil {
			ns *= e.Dilation()
		}
		e.T.AdvanceNs(ns)
	}
}

// ReadU64 reads a uint64 through the paging model.
func (e *Env) ReadU64(a mem.Addr) uint64 {
	if b, ok := e.hotR(a, 8); ok {
		return binary.LittleEndian.Uint64(b)
	}
	e.touch(a, 8, false)
	return e.P.Space.ReadU64(a)
}

// WriteU64 writes a uint64 through the paging model.
func (e *Env) WriteU64(a mem.Addr, v uint64) {
	if b, ok := e.hotW(a, 8); ok {
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	e.touch(a, 8, true)
	e.P.Space.WriteU64(a, v)
}

// ReadI64 reads an int64.
func (e *Env) ReadI64(a mem.Addr) int64 { return int64(e.ReadU64(a)) }

// WriteI64 writes an int64.
func (e *Env) WriteI64(a mem.Addr, v int64) { e.WriteU64(a, uint64(v)) }

// ReadF64 reads a float64.
func (e *Env) ReadF64(a mem.Addr) float64 {
	if b, ok := e.hotR(a, 8); ok {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	e.touch(a, 8, false)
	return e.P.Space.ReadF64(a)
}

// WriteF64 writes a float64.
func (e *Env) WriteF64(a mem.Addr, v float64) {
	if b, ok := e.hotW(a, 8); ok {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		return
	}
	e.touch(a, 8, true)
	e.P.Space.WriteF64(a, v)
}

// ReadU32 reads a uint32.
func (e *Env) ReadU32(a mem.Addr) uint32 {
	if b, ok := e.hotR(a, 4); ok {
		return binary.LittleEndian.Uint32(b)
	}
	e.touch(a, 4, false)
	return e.P.Space.ReadU32(a)
}

// WriteU32 writes a uint32.
func (e *Env) WriteU32(a mem.Addr, v uint32) {
	if b, ok := e.hotW(a, 4); ok {
		binary.LittleEndian.PutUint32(b, v)
		return
	}
	e.touch(a, 4, true)
	e.P.Space.WriteU32(a, v)
}

// ReadI32 reads an int32.
func (e *Env) ReadI32(a mem.Addr) int32 { return int32(e.ReadU32(a)) }

// WriteI32 writes an int32.
func (e *Env) WriteI32(a mem.Addr, v int32) { e.WriteU32(a, uint32(v)) }

// ReadU8 reads one byte.
func (e *Env) ReadU8(a mem.Addr) byte {
	if b, ok := e.hotR(a, 1); ok {
		return b[0]
	}
	e.touch(a, 1, false)
	return e.P.Space.ReadU8(a)
}

// WriteU8 writes one byte.
func (e *Env) WriteU8(a mem.Addr, v byte) {
	if b, ok := e.hotW(a, 1); ok {
		b[0] = v
		return
	}
	e.touch(a, 1, true)
	e.P.Space.WriteU8(a, v)
}

// ReadU64s reads len(dst) consecutive uint64s starting at a. It is
// element-for-element equivalent to that many ReadU64 calls — the paging
// state machine and DRAM charges run in the identical order — but runs of
// words inside an already-charged hot line decode straight from the
// borrowed frame without re-entering the model.
func (e *Env) ReadU64s(a mem.Addr, dst []uint64) {
	for i := 0; i < len(dst); {
		dst[i] = e.ReadU64(a)
		i++
		a += 8
		if !e.hotValid || e.fpEpoch != e.P.Epoch {
			continue
		}
		// Nothing below advances virtual time, so no yield can run and the
		// epoch cannot change mid-run: one check covers the whole line.
		if e.hotFrame == nil {
			e.hotFrame = e.P.Space.Frame(e.hotPage)
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(dst) && uint64(a)+8 <= end {
			dst[i] = binary.LittleEndian.Uint64(e.hotFrame[a&(mem.PageSize-1):])
			e.reads++
			i++
			a += 8
		}
	}
}

// WriteU64s writes src as consecutive uint64s starting at a, with the same
// per-element equivalence as ReadU64s.
func (e *Env) WriteU64s(a mem.Addr, src []uint64) {
	for i := 0; i < len(src); {
		e.WriteU64(a, src[i])
		i++
		a += 8
		if !e.hotValid || !e.hotWrite || e.fpEpoch != e.P.Epoch {
			continue
		}
		if e.hotFrame == nil {
			e.hotFrame = e.P.Space.Frame(e.hotPage)
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(src) && uint64(a)+8 <= end {
			binary.LittleEndian.PutUint64(e.hotFrame[a&(mem.PageSize-1):], src[i])
			e.writes++
			i++
			a += 8
		}
	}
}

// ReadU32s reads len(dst) consecutive uint32s starting at a (per-element
// equivalent to that many ReadU32 calls).
func (e *Env) ReadU32s(a mem.Addr, dst []uint32) {
	for i := 0; i < len(dst); {
		dst[i] = e.ReadU32(a)
		i++
		a += 4
		if !e.hotValid || e.fpEpoch != e.P.Epoch {
			continue
		}
		if e.hotFrame == nil {
			e.hotFrame = e.P.Space.Frame(e.hotPage)
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(dst) && uint64(a)+4 <= end {
			dst[i] = binary.LittleEndian.Uint32(e.hotFrame[a&(mem.PageSize-1):])
			e.reads++
			i++
			a += 4
		}
	}
}

// WriteU32s writes src as consecutive uint32s starting at a (per-element
// equivalent to that many WriteU32 calls).
func (e *Env) WriteU32s(a mem.Addr, src []uint32) {
	for i := 0; i < len(src); {
		e.WriteU32(a, src[i])
		i++
		a += 4
		if !e.hotValid || !e.hotWrite || e.fpEpoch != e.P.Epoch {
			continue
		}
		if e.hotFrame == nil {
			e.hotFrame = e.P.Space.Frame(e.hotPage)
		}
		end := (e.hotLine + 1) * e.lineB
		for i < len(src) && uint64(a)+4 <= end {
			binary.LittleEndian.PutUint32(e.hotFrame[a&(mem.PageSize-1):], src[i])
			e.writes++
			i++
			a += 4
		}
	}
}

// ReadBytes copies n bytes at a into buf (len(buf) == n).
func (e *Env) ReadBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	e.touch(a, len(buf), false)
	e.P.Space.ReadAt(a, buf)
}

// WriteBytes copies buf into the space at a.
func (e *Env) WriteBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	e.touch(a, len(buf), true)
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
	if w, _, ok := p.Cache.Lookup(pg); ok {
		p.stats.CacheHits++
		if write {
			if !w {
				upgradeWrite(e, pg)
			}
			p.Cache.MarkDirty(pg)
		}
		return
	}
	p.stats.CacheMisses++
	remoteFault(e, pg, write)
}

// ensureLocal is the monolithic path: free when DRAM is unlimited,
// otherwise an OS page cache over the local SSD.
func ensureLocal(e *Env, pg mem.PageID, write bool) {
	p := e.P
	if p.Cache == nil {
		return
	}
	if _, _, ok := p.Cache.Lookup(pg); ok {
		p.stats.CacheHits++
		if write {
			p.Cache.MarkDirty(pg)
		}
		return
	}
	p.stats.CacheMisses++
	p.stats.SSDFaults++
	hs := e.T.Now()
	e.T.AdvanceNs(p.M.Cfg.HW.FaultHandleNs)
	p.M.Times.Add(metrics.CompFaultSW, e.T.Now()-hs)
	p.M.Metrics.Counter("fault.ssd").Inc()
	p.M.SSD.ReadPage(e.T, uint64(pg))
	for _, v := range p.Cache.Insert(pg, true, write) {
		if v.Dirty {
			p.M.SSD.WritePage(e.T, uint64(v.Page))
		}
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
	p.M.Metrics.Counter("upgrade").Inc()
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
	fstart := e.T.Now()
	sp := p.M.Tracer().Begin(e.T, trace.KindRemoteFault, uint64(pg), b2i(write))
	p.M.Fabric.RoundTrip(e.T, faultReqBytes, pageRespBytes, netmodel.ClassPageFault)
	hs := e.T.Now()
	e.T.AdvanceNs(cfg.FaultHandleNs)
	p.M.Times.Add(metrics.CompFaultSW, e.T.Now()-hs)
	p.ensureInPool(e.T, pg, write, served)
	if p.hooks != nil {
		p.hooks.ComputeFaulted(e.T, pg, write)
	}
	evictAll(e, p.Cache.Insert(pg, write, write))

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
			ps := e.T.Now()
			e.T.AdvanceNs(float64(mem.PageSize) / cfg.NetBandwidthGBs)
			p.M.Times.Add(metrics.CompPrefetch, e.T.Now()-ps)
			p.M.Metrics.Counter("prefetch").Inc()
			evictAll(e, p.Cache.Insert(next, false, false))
		}
	}
	p.M.Tracer().End(e.T, sp)
	p.M.Metrics.Counter("fault.remote").Inc()
	p.M.Metrics.Histogram("fault.remote.ns").Observe(e.T.Now() - fstart)
	p.noteFault(pg)
	p.Epoch++
}

// evictAll charges write-backs for dirty victims.
func evictAll(e *Env, victims []Evicted) {
	for _, v := range victims {
		e.P.M.Trace.Add(trace.Event{At: e.T.Now(), Kind: trace.KindEviction, Page: uint64(v.Page), Arg: b2i(v.Dirty), Who: e.T.Name()})
		e.P.M.Metrics.Counter("eviction").Inc()
		if v.Dirty {
			e.P.stats.Writebacks++
			e.P.M.Fabric.Send(e.T, writebackBytes, netmodel.ClassWriteback)
			e.P.M.ReplicatePage(e.T, v.Page, e.P.M.serveShard(e.T.Now(), v.Page))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

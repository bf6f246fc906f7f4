package core

import (
	"slices"
	"sort"

	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

// tempTable is the temporary user context's page table. Conceptually it is
// a full clone of the caller's page table (Figure 8 line 7); because a
// clone starts identical to the original — present and writable everywhere
// the process has memory — we represent it as "writable by default" plus
// what the protocol changed: the resident list the first set-up of a
// generation applied (the base), and explicit overrides for the pages the
// protocol has touched since. A page without an override reads its state
// from the base, so Figure 8's set-up costs the host O(runs), not one
// override per resident page. The clone's O(table size) construction cost
// is still charged (see Runtime.enterPush), and so is every override the
// eager table would hold (see len), so the representation changes nothing
// observable.
//
// The Runtime owns one table and reuses it for every call: overrides carry
// the generation that materialised them, reset bumps the generation, and an
// override from an earlier generation reads as the cloned default again.
// Dropping a call's overrides therefore costs nothing, and a call that
// overrides pages a previous call already touched allocates nothing.
type tempTable struct {
	// chunks is page-indexed storage in fixed-size blocks, allocated on first
	// touch and never moved: the fault handlers hold a *tempPTE across fabric
	// round trips, during which another thread can materialise an override
	// for a page beyond the current extent, so growing must not relocate
	// existing entries.
	chunks []*[tempChunkPages]tempPTE
	gen    uint64

	// base is the resident list this generation's first set-up applied
	// (ascending, disjoint runs, as netmodel.CheckRuns admits), basePages
	// the pages it covers, and hint the index base's last lookup landed on.
	base      []netmodel.PageRun
	basePages int
	hint      int

	// touched lists the pages materialised this generation, in first-touch
	// order, and extra counts those outside the base; dirty is dirtyPages'
	// result buffer.
	touched []mem.PageID
	extra   int
	dirty   []mem.PageID
}

// tempChunkPages is the number of entries per storage block (a power of
// two, so locating an entry is a shift and a mask).
const tempChunkPages = 512

// tempPTE mirrors the paper's pte fields plus the bookkeeping the
// concurrent-fault tiebreak needs.
type tempPTE struct {
	present  bool
	writable bool
	dirty    bool

	// gen is the table generation that materialised this override; under
	// any other generation the entry is stale and stands for the page's
	// base state.
	gen uint64

	// lastMemTouch is the last virtual time the temporary context accessed
	// the page; a compute-pool write request arriving within the
	// contention window of it counts as a concurrent (R,R)→W fault and is
	// tie-broken in favour of the memory pool (§4.1).
	lastMemTouch sim.Time
}

// reset returns every page to the cloned default for the next temporary
// context. Generations start at 1 so that zeroed storage is always stale.
func (tt *tempTable) reset() {
	tt.gen++
	tt.base = tt.base[:0]
	tt.basePages, tt.hint = 0, 0
	tt.touched = tt.touched[:0]
	tt.extra = 0
}

// invalidateRuns applies Figure 8 lines 8–13 to every page of runs, a
// netmodel.CheckRuns-valid resident list: compute-writable pages leave the
// temporary context, compute-read-only pages are downgraded. While the table
// is still the untouched clone it only keeps a copy of runs as the base;
// otherwise — a call joining a generation whose table already differs from
// the clone — it invalidates page by page.
func (tt *tempTable) invalidateRuns(runs []netmodel.PageRun) {
	if len(tt.base) == 0 && len(tt.touched) == 0 {
		tt.base = append(tt.base, runs...)
		for _, run := range runs {
			tt.basePages += int(run.Count)
		}
		return
	}
	for _, run := range runs {
		for pg := run.Start; pg < run.Start+uint64(run.Count); pg++ {
			tt.invalidate(mem.PageID(pg), run.Writable)
		}
	}
}

// baseState returns the state of a page without an override: not present
// in a compute-writable run of the base (line 3), read-only in a read-only
// run (line 5), the cloned default outside the base. Accesses are
// page-local, so the run (or the gap before it) the last lookup landed on
// is tried before a binary search.
func (tt *tempTable) baseState(p mem.PageID) (present, writable, inBase bool) {
	b, pg := tt.base, uint64(p)
	i := tt.hint // the first run ending after the page last looked up
	if i < len(b) && pg >= b[i].Start+uint64(b[i].Count) || i > 0 && pg < b[i-1].Start+uint64(b[i-1].Count) {
		i = sort.Search(len(b), func(j int) bool { return pg < b[j].Start+uint64(b[j].Count) })
		tt.hint = i
	}
	if i < len(b) && pg >= b[i].Start {
		return !b[i].Writable, b[i].Writable, true
	}
	return true, true, false
}

// override returns p's override from this generation, or nil. It is the
// whole of a lookup once the page has been materialised, so it stays small
// enough to inline.
func (tt *tempTable) override(p mem.PageID) *tempPTE {
	if c := int(p / tempChunkPages); c < len(tt.chunks) && tt.chunks[c] != nil {
		if e := &tt.chunks[c][p%tempChunkPages]; e.gen == tt.gen {
			return e
		}
	}
	return nil
}

// entry returns the override for p, materialising its base state if none
// exists yet. The pointer stays valid, and keeps aliasing p's entry, until
// the next reset.
func (tt *tempTable) entry(p mem.PageID) *tempPTE {
	if e := tt.override(p); e != nil {
		return e
	}
	return tt.materialise(p)
}

// materialise is entry for a page with no override yet.
func (tt *tempTable) materialise(p mem.PageID) *tempPTE {
	c := int(p / tempChunkPages)
	for c >= len(tt.chunks) {
		tt.chunks = append(tt.chunks, nil)
	}
	if tt.chunks[c] == nil {
		tt.chunks[c] = new([tempChunkPages]tempPTE)
	}
	e := &tt.chunks[c][p%tempChunkPages]
	present, writable, inBase := tt.baseState(p)
	*e = tempPTE{present: present, writable: writable, gen: tt.gen}
	if !inBase {
		tt.extra++
	}
	tt.touched = append(tt.touched, p)
	return e
}

// peek returns the current state without materialising an override.
func (tt *tempTable) peek(p mem.PageID) (present, writable bool) {
	if e := tt.override(p); e != nil {
		return e.present, e.writable
	}
	present, writable, _ = tt.baseState(p)
	return present, writable
}

// invalidate implements Figure 8's Invalidate(pte, write): if the compute
// pool holds the page writable, the temporary context loses it entirely;
// if read-only, the temporary context keeps a read-only mapping.
//
//	1 Function Invalidate(pte, write):
//	2   if write then
//	3     pte.present ← False
//	4   else
//	5     pte.writable ← False
func (e *tempPTE) invalidate(computeWritable bool) {
	if computeWritable {
		e.present = false // line 3
	} else {
		e.writable = false // line 5
	}
}

// invalidate applies Invalidate to p's override.
func (tt *tempTable) invalidate(p mem.PageID, computeWritable bool) {
	tt.entry(p).invalidate(computeWritable)
}

// dirtyPages returns the pages the temporary context dirtied, in ascending
// page order, for the dirty-bit merge at completion (§4.1: "the dirty bits
// of the temporary context's page table should be merged back into the full
// page table"). Only this generation's overrides can be dirty, so it filters
// the touched list and sorts what is left instead of walking the address
// space. The result is valid until the next call.
func (tt *tempTable) dirtyPages() []mem.PageID {
	tt.dirty = tt.dirty[:0]
	for _, p := range tt.touched {
		if tt.chunks[p/tempChunkPages][p%tempChunkPages].dirty {
			tt.dirty = append(tt.dirty, p)
		}
	}
	slices.Sort(tt.dirty)
	return tt.dirty
}

// len returns the number of overrides the eager table would hold: every
// base page plus the pages materialised outside the base.
func (tt *tempTable) len() int { return tt.basePages + tt.extra }

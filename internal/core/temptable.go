package core

import (
	"slices"

	"teleport/internal/mem"
	"teleport/internal/sim"
)

// tempTable is the temporary user context's page table. Conceptually it is
// a full clone of the caller's page table (Figure 8 line 7); because a
// clone starts identical to the original — present and writable everywhere
// the process has memory — we represent it as "writable by default" plus
// explicit overrides for the pages the protocol has touched. The clone's
// O(table size) construction cost is still charged (see Runtime.enterPush),
// so the representation changes nothing observable.
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

	// touched lists the pages materialised this generation, in first-touch
	// order; dirty is dirtyPages' result buffer.
	touched []mem.PageID
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
	// any other generation the entry is stale and stands for the cloned
	// default.
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
	tt.touched = tt.touched[:0]
}

// entry returns the override for p, materialising the default
// (present+writable, i.e. the cloned state) if none exists yet. The pointer
// stays valid, and keeps aliasing p's entry, until the next reset.
func (tt *tempTable) entry(p mem.PageID) *tempPTE {
	c := int(p / tempChunkPages)
	for c >= len(tt.chunks) {
		tt.chunks = append(tt.chunks, nil)
	}
	if tt.chunks[c] == nil {
		tt.chunks[c] = new([tempChunkPages]tempPTE)
	}
	e := &tt.chunks[c][p%tempChunkPages]
	if e.gen != tt.gen {
		*e = tempPTE{present: true, writable: true, gen: tt.gen}
		tt.touched = append(tt.touched, p)
	}
	return e
}

// peek returns the current state without materialising an override.
func (tt *tempTable) peek(p mem.PageID) (present, writable bool) {
	if c := int(p / tempChunkPages); c < len(tt.chunks) && tt.chunks[c] != nil {
		if e := &tt.chunks[c][p%tempChunkPages]; e.gen == tt.gen {
			return e.present, e.writable
		}
	}
	return true, true
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
func (tt *tempTable) invalidate(p mem.PageID, computeWritable bool) {
	e := tt.entry(p)
	if computeWritable {
		e.present = false // line 3
	} else {
		e.writable = false // line 5
	}
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

// len returns the number of materialised overrides (protocol-touched pages).
func (tt *tempTable) len() int { return len(tt.touched) }

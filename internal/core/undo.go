package core

import (
	"teleport/internal/mem"
)

// pagePool recycles page-sized pre-image buffers across pushdown calls so
// steady-state journal capture allocates nothing: buffers go back on the
// free list when a call rolls back or commits. A nil pool degrades to plain
// allocation (SnapshotPageInto allocates when handed a nil buffer), which
// keeps directly constructed journals in tests working unchanged.
type pagePool struct {
	free [][]byte
}

// get pops a recycled buffer, or returns nil (meaning "allocate").
func (p *pagePool) get() []byte {
	if p == nil || len(p.free) == 0 {
		return nil
	}
	n := len(p.free) - 1
	b := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	return b
}

// put returns a buffer to the free list.
func (p *pagePool) put(b []byte) {
	if p == nil || cap(b) < mem.PageSize {
		return
	}
	p.free = append(p.free, b)
}

// undoJournal is the memory-kernel side's crash-consistency log for one
// pushdown call: a copy-on-first-write pre-image of every page the temporary
// context dirties. When the context dies mid-execution (an armed mid-crash
// or a deadline abort), the controller restores the pre-images before the
// compute side is told anything, so a retry — or the compute-side fallback —
// re-executes against exactly the state fn started from. Without it,
// non-idempotent pushed operators (read-modify-write accumulations) would
// double-apply their partial writes on re-execution.
//
// The journal is per call, not per page table: two contexts in flight can
// each need their own pre-image of one page. Its storage lives in the call's
// pooled scratch and is reused by the next call that takes the scratch.
type undoJournal struct {
	recs []undoRec // capture order, for a deterministic restore walk
	// slot[pg] is where in recs page pg's record would be. Entries are never
	// reset: one is believed only when the record it names is pg's, so what
	// earlier calls left behind reads as "not captured".
	slot []uint32
	pool *pagePool // optional pre-image buffer recycler (Runtime-owned)
}

// undoRec is one captured pre-image.
type undoRec struct {
	page  mem.PageID
	image []byte
}

// captured reports whether this call already holds pg's pre-image.
func (j *undoJournal) captured(pg mem.PageID) bool {
	if pg >= mem.PageID(len(j.slot)) {
		return false
	}
	i := int(j.slot[pg])
	return i < len(j.recs) && j.recs[i].page == pg
}

// capture records page pg's pre-image if this call has not dirtied it yet.
// It must run before the write it guards mutates the page: EnsurePage is
// called ahead of the backing Space write, so the snapshot still sees the
// pristine bytes.
func (j *undoJournal) capture(s *mem.Space, pg mem.PageID) {
	if j.captured(pg) {
		return
	}
	if short := int(pg) + 1 - len(j.slot); short > 0 {
		j.slot = append(j.slot, make([]uint32, short)...)
	}
	j.slot[pg] = uint32(len(j.recs))
	j.recs = append(j.recs, undoRec{page: pg, image: s.SnapshotPageInto(pg, j.pool.get())})
}

// pages returns how many distinct pages the journal holds.
func (j *undoJournal) pages() int { return len(j.recs) }

// rollback restores every captured pre-image in reverse capture order (a
// fixed order, so two same-seed runs roll back identically), invoking onPage
// for each restored page, and empties the journal, returning its buffers to
// the pool.
func (j *undoJournal) rollback(s *mem.Space, onPage func(mem.PageID)) int {
	n := len(j.recs)
	for i := n - 1; i >= 0; i-- {
		rec := j.recs[i]
		s.RestorePage(rec.page, rec.image)
		if onPage != nil {
			onPage(rec.page)
		}
	}
	j.discard()
	return n
}

// discard drops the journal without restoring anything (the call committed:
// its writes stand, the pre-images are dead) and recycles the buffers.
func (j *undoJournal) discard() {
	for _, rec := range j.recs {
		j.pool.put(rec.image)
	}
	clear(j.recs)
	j.recs = j.recs[:0]
}

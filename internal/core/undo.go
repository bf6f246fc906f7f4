package core

import (
	"teleport/internal/mem"
)

// undoJournal is the memory-kernel side's crash-consistency log for one
// pushdown call: a copy-on-first-write pre-image of every page the temporary
// context dirties. When the context dies mid-execution (an armed mid-crash,
// a deadline abort or a lost write quorum), the controller restores the
// pre-images before the compute side is told anything, so a retry — or the
// compute-side fallback — re-executes against exactly the state fn started
// from. Without it, non-idempotent pushed operators (read-modify-write
// accumulations) would double-apply their partial writes on re-execution.
// A call that cannot die mid-execution keeps no journal (memPager.capture).
//
// The journal is per call, not per page table: two contexts in flight can
// each need their own pre-image of one page. Its storage lives in the call's
// pooled scratch and is reused by the next call that takes the scratch; the
// pre-images are pages of the address space's arena (mem.Space.SnapshotPageInto
// with no buffer) and go back to it when the call rolls back or commits, so
// steady-state capture allocates nothing.
type undoJournal struct {
	recs []undoRec // capture order, for a deterministic restore walk
	// slot[pg] is where in recs page pg's record would be. Entries are never
	// reset: one is believed only when the record it names is pg's, so what
	// earlier calls left behind reads as "not captured".
	slot []uint32
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
	j.recs = append(j.recs, undoRec{page: pg, image: s.SnapshotPageInto(pg, nil)})
}

// pages returns how many distinct pages the journal holds.
func (j *undoJournal) pages() int { return len(j.recs) }

// rollback restores every captured pre-image in reverse capture order (a
// fixed order, so two same-seed runs roll back identically), invoking onPage
// for each restored page, and empties the journal, returning its pre-images to
// the space.
func (j *undoJournal) rollback(s *mem.Space, onPage func(mem.PageID)) int {
	n := len(j.recs)
	for i := n - 1; i >= 0; i-- {
		rec := j.recs[i]
		s.RestorePage(rec.page, rec.image)
		if onPage != nil {
			onPage(rec.page)
		}
	}
	j.discard(s)
	return n
}

// discard drops the journal without restoring anything (the call committed:
// its writes stand, the pre-images are dead) and recycles them.
func (j *undoJournal) discard(s *mem.Space) {
	for _, rec := range j.recs {
		s.Recycle(rec.image)
	}
	clear(j.recs)
	j.recs = j.recs[:0]
}

package coldb

import (
	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// CandList is a materialised list of qualifying row indices — MonetDB's
// candidate list, the optional third input of its selection operator
// (§2.3). It lives in disaggregated memory like everything else.
type CandList struct {
	Base mem.Addr
	N    int

	name string // for the overflow panic
	cap  int    // entries allocated: the address space is a bump allocator
}

// NewCandList allocates a candidate list with capacity cap.
func NewCandList(p *ddc.Process, cap int) *CandList { return newCandList(p, "cand", cap) }

func newCandList(p *ddc.Process, name string, cap int) *CandList {
	cap = max(cap, 1)
	return &CandList{Base: p.Space.AllocPages(int64(cap)*4, "cand"), name: name, cap: cap}
}

// Len returns the number of candidates, or n when the list is nil.
func (cl *CandList) Len(n int) int {
	if cl == nil {
		return n
	}
	return cl.N
}

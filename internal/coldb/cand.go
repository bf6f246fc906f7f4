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
}

// NewCandList allocates a candidate list with capacity cap.
func NewCandList(p *ddc.Process, cap int) *CandList {
	if cap <= 0 {
		cap = 1
	}
	return &CandList{Base: p.Space.AllocPages(int64(cap)*4, "cand")}
}

// Get reads entry i.
func (cl *CandList) Get(env *ddc.Env, i int) int {
	return int(env.ReadU32(cl.Base + mem.Addr(i*4)))
}

// Append writes the next entry.
func (cl *CandList) Append(env *ddc.Env, row int) {
	env.WriteU32(cl.Base+mem.Addr(cl.N*4), uint32(row))
	cl.N++
}

// ForEach iterates the candidate rows; with a nil receiver it iterates the
// full range [0, n) instead, so operators treat "no candidate list" and "all
// rows" uniformly.
func (cl *CandList) ForEach(env *ddc.Env, n int, f func(row int)) {
	if cl == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	for i := 0; i < cl.N; i++ {
		f(cl.Get(env, i))
	}
}

// Len returns the number of candidates, or n when the list is nil.
func (cl *CandList) Len(n int) int {
	if cl == nil {
		return n
	}
	return cl.N
}

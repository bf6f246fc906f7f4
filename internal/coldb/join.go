package coldb

import (
	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// HashIndex is a chained hash table over a key column, stored entirely in
// disaggregated memory: a bucket-head array plus a per-row chain array.
// Probing it is the random-access pattern that makes hash join "severely
// memory-bound" in a DDC (§5.1).
type HashIndex struct {
	Keys     *Column
	nBuckets int
	buckets  mem.Addr // uint32 head per bucket; 0 = empty, else row+1
	next     mem.Addr // uint32 chain per row; 0 = end, else row+1
}

// BuildHashIndex builds the index over key (restricted to cand if non-nil).
// Rows outside cand are absent from the index.
func BuildHashIndex(env *ddc.Env, key *Column, cand *CandList) *HashIndex {
	n := key.N
	nBuckets := 16
	for nBuckets < n*2 {
		nBuckets <<= 1
	}
	h := &HashIndex{
		Keys:     key,
		nBuckets: nBuckets,
		buckets:  env.P.Space.AllocPages(int64(nBuckets)*4, "hash.buckets"),
		next:     env.P.Space.AllocPages(int64(max(n, 1))*4, "hash.next"),
	}
	cand.ForEach(env, n, func(row int) {
		env.Compute(opsHashBuild)
		b := h.bucket(key.I64At(env, row))
		head := env.ReadU32(h.buckets + mem.Addr(b*4))
		env.WriteU32(h.next+mem.Addr(row*4), head)
		env.WriteU32(h.buckets+mem.Addr(b*4), uint32(row+1))
	})
	return h
}

func (h *HashIndex) bucket(k int64) int {
	x := uint64(k) * 0x9E3779B97F4A7C15
	return int(x>>32) & (h.nBuckets - 1)
}

// Probe walks the chain for key k and returns the first matching row, or
// -1. Each chain step is a dependent random access.
func (h *HashIndex) Probe(env *ddc.Env, k int64) int {
	env.Compute(opsHashProbe)
	cur := env.ReadU32(h.buckets + mem.Addr(h.bucket(k)*4))
	for cur != 0 {
		row := int(cur - 1)
		env.Compute(opsChainStep)
		if h.Keys.I64At(env, row) == k {
			return row
		}
		cur = env.ReadU32(h.next + mem.Addr(row*4))
	}
	return -1
}

// JoinResult pairs probe-side rows with the matched build-side rows.
type JoinResult struct {
	Outer *CandList // probe-side row indices
	Inner *CandList // matched build-side row indices (parallel to Outer)
}

// HashJoinProbe scans probeKey over cand, probes the index, and materialises
// matching (outer, inner) row pairs — steps (1)–(3) of the binary hash join
// described in §2.2.
func HashJoinProbe(env *ddc.Env, idx *HashIndex, probeKey *Column, cand *CandList) JoinResult {
	capHint := cand.Len(probeKey.N)
	res := JoinResult{
		Outer: NewCandList(env.P, capHint),
		Inner: NewCandList(env.P, capHint),
	}
	cand.ForEach(env, probeKey.N, func(row int) {
		if m := idx.Probe(env, probeKey.I64At(env, row)); m >= 0 {
			res.Outer.Append(env, row)
			res.Inner.Append(env, m)
		}
	})
	return res
}

// GatherI64 materialises col[rows[i]] for a row-index list — the payload
// fetch that follows a join.
func GatherI64(env *ddc.Env, col *Column, rows *CandList) *Column {
	out := NewColumn(env.P, col.Name+"#g", col.Type, max(rows.N, 1))
	out.N = rows.N
	for i := 0; i < rows.N; i++ {
		env.Compute(opsProject)
		out.SetI64(env, i, col.I64At(env, rows.Get(env, i)))
	}
	return out
}

// GatherF64 is GatherI64 for float payloads.
func GatherF64(env *ddc.Env, col *Column, rows *CandList) *Column {
	out := NewColumn(env.P, col.Name+"#g", F64, max(rows.N, 1))
	out.N = rows.N
	for i := 0; i < rows.N; i++ {
		env.Compute(opsProject)
		out.SetF64(env, i, col.F64At(env, rows.Get(env, i)))
	}
	return out
}

// MergeJoin joins two key columns that are both sorted ascending, returning
// matched row pairs. One-to-many matches are emitted pairwise; both inputs
// are consumed sequentially (the pattern that makes merge join tolerable in
// a DDC, Figure 10).
func MergeJoin(env *ddc.Env, left, right *Column) JoinResult {
	res := JoinResult{
		Outer: NewCandList(env.P, left.N),
		Inner: NewCandList(env.P, left.N),
	}
	i, j := 0, 0
	for i < left.N && j < right.N {
		env.Compute(opsMerge)
		lv := left.I64At(env, i)
		rv := right.I64At(env, j)
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the run of equal right keys for this left row.
			for jj := j; jj < right.N; jj++ {
				env.Compute(opsMerge)
				if right.I64At(env, jj) != lv {
					break
				}
				res.Outer.Append(env, i)
				res.Inner.Append(env, jj)
			}
			i++
		}
	}
	return res
}

// LookupJoin probes a unique-key index column where keys are dense
// 0..N-1 identifiers (dimension tables like supplier or nation): a direct
// positional gather.
func LookupJoin(env *ddc.Env, dim *Column, fk *Column, cand *CandList) *Column {
	n := cand.Len(fk.N)
	out := NewColumn(env.P, dim.Name+"#lk", dim.Type, max(n, 1))
	out.N = n
	i := 0
	cand.ForEach(env, fk.N, func(row int) {
		env.Compute(opsHashProbe)
		k := int(fk.I64At(env, row))
		if dim.Type == F64 {
			out.SetF64(env, i, dim.F64At(env, k))
		} else {
			out.SetI64(env, i, dim.I64At(env, k))
		}
		i++
	})
	return out
}

package coldb

import (
	"encoding/binary"

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
	sc := scalarScan(env, cand, n) // every row lands in a random bucket: none is absorbed
	keys := sc.operand(key, ddc.StreamExplicit)
	chain := sc.Stream(h.next, 4, ddc.StreamWrite|ddc.StreamExplicit)
	for sc.Next() {
		env.Compute(opsHashBuild)
		b := mem.Addr(h.bucket(key.Type.i64(sc.at(keys, 0))) * 4)
		head := env.ReadU32(h.buckets + b) // positional: the bucket's head
		binary.LittleEndian.PutUint32(sc.Access(chain, 0, sc.Row), head)
		env.WriteU32(h.buckets+b, uint32(sc.Row+1))
	}
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
		if h.Keys.I64At(env, row) == k { // positional: a chain's rows are anywhere
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
	res := newJoinResult(env.P, cand.Len(probeKey.N))
	sc := scalarScan(env, cand, probeKey.N) // every row walks a random chain: none is absorbed
	keys := sc.read(probeKey)
	outer, inner := sc.appendTo(res.Outer), sc.appendTo(res.Inner)
	for sc.Next() {
		if m := idx.Probe(env, keys.i64(0)); m >= 0 {
			outer.add(0, sc.Row)
			inner.add(0, m)
		}
	}
	return res
}

func newJoinResult(p *ddc.Process, pairs int) JoinResult {
	return JoinResult{Outer: newCandList(p, "join.outer", pairs), Inner: newCandList(p, "join.inner", pairs)}
}

// GatherI64 materialises col[rows[i]] for a row-index list — the payload
// fetch that follows a join.
func GatherI64(env *ddc.Env, col *Column, rows *CandList) *Column {
	return gather(env, col, rows, col.Type)
}

// GatherF64 is GatherI64 for float payloads.
func GatherF64(env *ddc.Env, col *Column, rows *CandList) *Column {
	return gather(env, col, rows, F64)
}

func gather(env *ddc.Env, col *Column, rows *CandList, t Type) *Column {
	sc := scalarScan(env, nil, rows.N) // every row fetches a random payload: none is absorbed
	list := sc.Stream(rows.Base, 4, ddc.StreamExplicit)
	out, to := sc.output(env, col.Name+"#g", t, ddc.StreamExplicit)
	for sc.Next() {
		env.Compute(opsProject)
		row := int(binary.LittleEndian.Uint32(sc.Access(list, 0, sc.I)))
		sc.fetch(env, to, col, row) // positional: the payload of whichever row the join matched
	}
	return out
}

// MergeJoin joins two key columns that are both sorted ascending, returning
// matched row pairs: each left row with the run of equal right keys. It is
// the join of a foreign key with the key it references, so the result is
// sized for max(left.N, right.N) pairs, and a many-to-many input that
// produces more panics. Both inputs are consumed sequentially (the pattern
// that makes merge join tolerable in a DDC, Figure 10), but a comparison
// re-reads the right side's run from its start for every equal left row, so
// the loop makes each access itself and none of its steps is absorbed.
func MergeJoin(env *ddc.Env, left, right *Column) JoinResult {
	res := newJoinResult(env.P, max(left.N, right.N))
	sc := scalarScan(env, nil, 0)
	l, r := sc.operand(left, ddc.StreamExplicit), sc.operand(right, ddc.StreamExplicit)
	outer, inner := sc.appendTo(res.Outer), sc.appendTo(res.Inner)
	i, j := 0, 0
	for i < left.N && j < right.N {
		env.Compute(opsMerge)
		lv := left.Type.i64(sc.Access(l.s, 0, i))
		rv := right.Type.i64(sc.Access(r.s, 0, j))
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the run of equal right keys for this left row.
			for jj := j; jj < right.N; jj++ {
				env.Compute(opsMerge)
				if right.Type.i64(sc.Access(r.s, 0, jj)) != lv {
					break
				}
				outer.add(0, i)
				inner.add(0, jj)
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
	sc := scalarScan(env, cand, fk.N) // every row fetches a random dimension row: none is absorbed
	keys := sc.operand(fk, ddc.StreamExplicit)
	out, to := sc.output(env, dim.Name+"#lk", dim.Type, ddc.StreamExplicit)
	for sc.Next() {
		env.Compute(opsHashProbe)
		k := int(fk.Type.i64(sc.at(keys, 0)))
		sc.fetch(env, to, dim, k) // positional: the dimension row the foreign key names
	}
	return out
}

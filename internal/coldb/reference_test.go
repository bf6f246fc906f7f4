package coldb

import (
	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// This file is the row-at-a-time evaluator the operators are checked against
// (oracle_test.go): the operator bodies as they were before the scan, which
// enter the paging and DRAM models once per value, with the scalar accessors
// they were written on. Only the names changed, to a ref prefix.

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

// SetI64 writes element i from an int64.
func (c *Column) SetI64(env *ddc.Env, i int, v int64) {
	if c.Type == I32 {
		env.WriteU32(c.Addr(i), uint32(int32(v)))
		return
	}
	env.WriteI64(c.Addr(i), v)
}

// SetF64 writes element i from a float64.
func (c *Column) SetF64(env *ddc.Env, i int, v float64) {
	switch c.Type {
	case F64:
		env.WriteF64(c.Addr(i), v)
	case I32:
		env.WriteU32(c.Addr(i), uint32(int32(v)))
	default:
		env.WriteI64(c.Addr(i), int64(v))
	}
}

// refSelectI64 scans col (restricted to cand if non-nil), applies pred, and
// materialises qualifying rows into a fresh candidate list — MonetDB's
// selection (§2.3: scan, filter, materialise to a temporary table).
func refSelectI64(env *ddc.Env, col *Column, pred PredI64, cand *CandList) *CandList {
	out := NewCandList(env.P, cand.Len(col.N))
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsSelect)
		if pred.Eval(col.I64At(env, row)) {
			out.Append(env, row)
		}
	})
	return out
}

// refSelectF64 is SelectI64 for float columns.
func refSelectF64(env *ddc.Env, col *Column, pred PredF64, cand *CandList) *CandList {
	out := NewCandList(env.P, cand.Len(col.N))
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsSelect)
		if pred.Eval(col.F64At(env, row)) {
			out.Append(env, row)
		}
	})
	return out
}

// refProject materialises the candidate rows of col into a fresh, dense column
// (a projected temporary), the operator with the highest memory intensity in
// Q9's profile (Figure 10).
func refProject(env *ddc.Env, col *Column, cand *CandList) *Column {
	n := cand.Len(col.N)
	out := NewColumn(env.P, col.Name+"#proj", col.Type, max(n, 1))
	out.N = n
	i := 0
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsProject)
		if col.Type == F64 {
			out.SetF64(env, i, col.F64At(env, row))
		} else {
			out.SetI64(env, i, col.I64At(env, row))
		}
		i++
	})
	return out
}

// refAggregate reduces col over the candidate rows.
func refAggregate(env *ddc.Env, col *Column, kind AggKind, cand *CandList) float64 {
	var acc float64
	first := true
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsAggregate)
		v := col.F64At(env, row)
		switch kind {
		case AggSum:
			acc += v
		case AggCount:
			acc++
		case AggMin:
			if first || v < acc {
				acc = v
			}
		case AggMax:
			if first || v > acc {
				acc = v
			}
		}
		first = false
	})
	return acc
}

// refExprMulAddColumns evaluates a*b*scale + c (c optional) over the candidate
// rows into a fresh F64 column — the expression-evaluation operator
// (Figure 10 "Express.").
func refExprMulAddColumns(env *ddc.Env, a, b *Column, scale float64, cand *CandList) *Column {
	n := cand.Len(a.N)
	out := NewColumn(env.P, a.Name+"*"+b.Name, F64, max(n, 1))
	out.N = n
	i := 0
	cand.ForEach(env, a.N, func(row int) {
		env.Compute(opsExpr)
		out.SetF64(env, i, a.F64At(env, row)*b.F64At(env, row)*scale)
		i++
	})
	return out
}

// refExprRevenue computes price*(1-discount) over candidate rows.
func refExprRevenue(env *ddc.Env, price, discount *Column, cand *CandList) *Column {
	n := cand.Len(price.N)
	out := NewColumn(env.P, "revenue", F64, max(n, 1))
	out.N = n
	i := 0
	cand.ForEach(env, price.N, func(row int) {
		env.Compute(opsExpr)
		out.SetF64(env, i, price.F64At(env, row)*(1-discount.F64At(env, row)))
		i++
	})
	return out
}

// refBuildHashIndex builds the index over key (restricted to cand if non-nil).
// Rows outside cand are absent from the index.
func refBuildHashIndex(env *ddc.Env, key *Column, cand *CandList) *HashIndex {
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

// refHashJoinProbe scans probeKey over cand, probes the index, and materialises
// matching (outer, inner) row pairs — steps (1)–(3) of the binary hash join
// described in §2.2.
func refHashJoinProbe(env *ddc.Env, idx *HashIndex, probeKey *Column, cand *CandList) JoinResult {
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

// refGatherI64 materialises col[rows[i]] for a row-index list — the payload
// fetch that follows a join.
func refGatherI64(env *ddc.Env, col *Column, rows *CandList) *Column {
	out := NewColumn(env.P, col.Name+"#g", col.Type, max(rows.N, 1))
	out.N = rows.N
	for i := 0; i < rows.N; i++ {
		env.Compute(opsProject)
		out.SetI64(env, i, col.I64At(env, rows.Get(env, i)))
	}
	return out
}

// refGatherF64 is GatherI64 for float payloads.
func refGatherF64(env *ddc.Env, col *Column, rows *CandList) *Column {
	out := NewColumn(env.P, col.Name+"#g", F64, max(rows.N, 1))
	out.N = rows.N
	for i := 0; i < rows.N; i++ {
		env.Compute(opsProject)
		out.SetF64(env, i, col.F64At(env, rows.Get(env, i)))
	}
	return out
}

// refMergeJoin joins two key columns that are both sorted ascending, returning
// matched row pairs. One-to-many matches are emitted pairwise; both inputs
// are consumed sequentially (the pattern that makes merge join tolerable in
// a DDC, Figure 10).
func refMergeJoin(env *ddc.Env, left, right *Column) JoinResult {
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

// refLookupJoin probes a unique-key index column where keys are dense
// 0..N-1 identifiers (dimension tables like supplier or nation): a direct
// positional gather.
func refLookupJoin(env *ddc.Env, dim *Column, fk *Column, cand *CandList) *Column {
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

// refRows scans the table and returns all groups (order unspecified).
func (g *GroupAgg) refRows(env *ddc.Env) []GroupRow {
	out := make([]GroupRow, 0, g.Groups)
	for i := 0; i < g.nSlots; i++ {
		env.Compute(2)
		k := env.ReadI64(g.keys + mem.Addr(i*8))
		if k == emptyKey {
			continue
		}
		out = append(out, GroupRow{
			Key:   k,
			Sum:   env.ReadF64(g.sums + mem.Addr(i*8)),
			Count: env.ReadI64(g.counts + mem.Addr(i*8)),
		})
	}
	return out
}

// refGroupBySum aggregates vals by keys over candidate rows and returns the
// group table (the Group/Aggr. operators of Figure 10).
func refGroupBySum(env *ddc.Env, keys, vals *Column, cand *CandList, maxGroups int) *GroupAgg {
	g := NewGroupAgg(env.P, maxGroups)
	cand.ForEach(env, keys.N, func(row int) {
		g.Add(env, keys.I64At(env, row), vals.F64At(env, row))
	})
	return g
}

// refAggregateRange folds rows [lo, hi) of col into a partial.
func refAggregateRange(env *ddc.Env, col *Column, lo, hi int) PartialAgg {
	var out PartialAgg
	for row := lo; row < hi; row++ {
		env.Compute(opsAggregate)
		v := col.F64At(env, row)
		if !out.valid {
			out = PartialAgg{Sum: v, Count: 1, Min: v, Max: v, valid: true}
			continue
		}
		out.Sum += v
		out.Count++
		if v < out.Min {
			out.Min = v
		}
		if v > out.Max {
			out.Max = v
		}
	}
	return out
}

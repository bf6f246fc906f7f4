package coldb

import (
	"teleport/internal/ddc"
)

// Per-tuple CPU costs (abstract operations). Relational operators are
// computationally lightweight relative to their memory traffic (§2.2);
// these costs make compute time visible without dominating.
const (
	opsSelect    = 2
	opsProject   = 2
	opsAggregate = 2
	opsHashBuild = 8
	opsHashProbe = 6
	opsChainStep = 2
	opsMerge     = 4
	opsExpr      = 4
	opsGroup     = 8
)

// CmpOp is a comparison predicate operator.
type CmpOp int

// Predicate operators.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpBetween // Lo ≤ v ≤ Hi
)

// PredI64 is an integer predicate (dates are day-number integers).
type PredI64 struct {
	Op     CmpOp
	Lo, Hi int64
}

// Eval applies the predicate.
func (p PredI64) Eval(v int64) bool {
	switch p.Op {
	case CmpLT:
		return v < p.Lo
	case CmpLE:
		return v <= p.Lo
	case CmpGT:
		return v > p.Lo
	case CmpGE:
		return v >= p.Lo
	case CmpEQ:
		return v == p.Lo
	default:
		return v >= p.Lo && v <= p.Hi
	}
}

// PredF64 is a float predicate.
type PredF64 struct {
	Op     CmpOp
	Lo, Hi float64
}

// Eval applies the predicate.
func (p PredF64) Eval(v float64) bool {
	switch p.Op {
	case CmpLT:
		return v < p.Lo
	case CmpLE:
		return v <= p.Lo
	case CmpGT:
		return v > p.Lo
	case CmpGE:
		return v >= p.Lo
	case CmpEQ:
		return v == p.Lo
	default:
		return v >= p.Lo && v <= p.Hi
	}
}

// SelectI64 scans col (restricted to cand if non-nil), applies pred, and
// materialises qualifying rows into a fresh candidate list — MonetDB's
// selection (§2.3: scan, filter, materialise to a temporary table).
func SelectI64(env *ddc.Env, col *Column, pred PredI64, cand *CandList) *CandList {
	out := NewCandList(env.P, cand.Len(col.N))
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsSelect)
		if pred.Eval(col.I64At(env, row)) {
			out.Append(env, row)
		}
	})
	return out
}

// SelectF64 is SelectI64 for float columns.
func SelectF64(env *ddc.Env, col *Column, pred PredF64, cand *CandList) *CandList {
	out := NewCandList(env.P, cand.Len(col.N))
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsSelect)
		if pred.Eval(col.F64At(env, row)) {
			out.Append(env, row)
		}
	})
	return out
}

// Project materialises the candidate rows of col into a fresh, dense column
// (a projected temporary), the operator with the highest memory intensity in
// Q9's profile (Figure 10).
func Project(env *ddc.Env, col *Column, cand *CandList) *Column {
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

// AggKind selects an aggregate function.
type AggKind int

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
)

// Aggregate reduces col over the candidate rows.
func Aggregate(env *ddc.Env, col *Column, kind AggKind, cand *CandList) float64 {
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

// ExprMulAddColumns evaluates a*b*scale + c (c optional) over the candidate
// rows into a fresh F64 column — the expression-evaluation operator
// (Figure 10 "Express.").
func ExprMulAddColumns(env *ddc.Env, a, b *Column, scale float64, cand *CandList) *Column {
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

// ExprRevenue computes price*(1-discount) over candidate rows.
func ExprRevenue(env *ddc.Env, price, discount *Column, cand *CandList) *Column {
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

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
	sc := newScan(env, cand, col.N, opsSelect)
	in, hits := sc.read(col), sc.appendTo(out)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			if pred.Eval(in.i64(j)) {
				hits.add(j, sc.Row+j)
			}
		}
	}
	return out
}

// SelectF64 is SelectI64 for float columns.
func SelectF64(env *ddc.Env, col *Column, pred PredF64, cand *CandList) *CandList {
	out := NewCandList(env.P, cand.Len(col.N))
	sc := newScan(env, cand, col.N, opsSelect)
	in, hits := sc.read(col), sc.appendTo(out)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			if pred.Eval(in.f64(j)) {
				hits.add(j, sc.Row+j)
			}
		}
	}
	return out
}

// Project materialises the candidate rows of col into a fresh, dense column
// (a projected temporary), the operator with the highest memory intensity in
// Q9's profile (Figure 10).
func Project(env *ddc.Env, col *Column, cand *CandList) *Column {
	sc := newScan(env, cand, col.N, opsProject)
	in := sc.read(col)
	out, to := sc.output(env, col.Name+"#proj", col.Type, 0)
	for sc.Next() {
		copy(to.s.Bytes(), in.s.Bytes()) // the same type on both sides: values move as stored
	}
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
	sc := newScan(env, cand, col.N, opsAggregate)
	in := sc.read(col)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			v := in.f64(j)
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
		}
	}
	return acc
}

// ExprMulAddColumns evaluates a*b*scale over the candidate rows into a fresh
// F64 column — the expression-evaluation operator (Figure 10 "Express.").
func ExprMulAddColumns(env *ddc.Env, a, b *Column, scale float64, cand *CandList) *Column {
	return MapF64(env, a.Name+"*"+b.Name, opsExpr, a, b, cand, func(x, y float64) float64 { return x * y * scale })
}

// ExprRevenue computes price*(1-discount) over candidate rows.
func ExprRevenue(env *ddc.Env, price, discount *Column, cand *CandList) *Column {
	return MapF64(env, "revenue", opsExpr, price, discount, cand, func(p, d float64) float64 { return p * (1 - d) })
}

// MapF64 evaluates f(a, b) over the candidate rows into a fresh F64 column,
// charging ops operations per row: the expression operator behind the two
// above, and a query's own arithmetic (Q9's amount, Q1's charge).
func MapF64(env *ddc.Env, name string, ops float64, a, b *Column, cand *CandList, f func(a, b float64) float64) *Column {
	sc := newScan(env, cand, a.N, ops)
	x, y := sc.read(a), sc.read(b)
	out, to := sc.output(env, name, F64, 0)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			to.setF64(j, f(x.f64(j), y.f64(j)))
		}
	}
	return out
}

// MapI64 is MapF64 for integer arithmetic into a column of type t (key
// packing, date parts); b may be nil, and f then sees 0 for it.
func MapI64(env *ddc.Env, name string, t Type, ops float64, a, b *Column, cand *CandList, f func(a, b int64) int64) *Column {
	sc := newScan(env, cand, a.N, ops)
	x := sc.read(a)
	var y cursor
	if b != nil {
		y = sc.read(b)
	}
	out, to := sc.output(env, name, t, 0)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			v := int64(0)
			if b != nil {
				v = y.i64(j)
			}
			to.setI64(j, f(x.i64(j), v))
		}
	}
	return out
}

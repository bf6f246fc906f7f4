package tpch

import (
	"sort"

	"teleport/internal/coldb"
	"teleport/internal/ddc"
	"teleport/internal/profile"
)

// Operator names used across the query plans (these are the names pushdown
// sets and the Figure 10/18 profiles key on).
const (
	OpSelection   = "Selection"
	OpProjection  = "Projection"
	OpAggregation = "Aggregation"
	OpHashJoin    = "HashJoin"
	OpMergeJoin   = "MergeJoin"
	OpLookup      = "Lookup"
	OpExpression  = "Expression"
	OpGroup       = "Group"
)

// QFilterOps are the operators of the §5.1 microbenchmark, in plan order.
var QFilterOps = []string{OpSelection, OpProjection, OpAggregation}

// QFilter runs the paper's Q_filter:
//
//	SELECT SUM(quantity) FROM Lineitem WHERE shipdate < $DATE
//
// as a selection, a projection, and an aggregation (§5.1, Figure 12).
func QFilter(ex *profile.Exec, d *Data, cutDay int64) float64 {
	li := d.DB.Table("lineitem")
	var cand *coldb.CandList
	ex.Run(OpSelection, func(env *ddc.Env) {
		cand = coldb.SelectI64(env, li.Col("l_shipdate"), coldb.PredI64{Op: coldb.CmpLT, Lo: cutDay}, nil)
	})
	var qty *coldb.Column
	ex.Run(OpProjection, func(env *ddc.Env) {
		qty = coldb.Project(env, li.Col("l_quantity"), cand)
	})
	var sum float64
	ex.Run(OpAggregation, func(env *ddc.Env) {
		sum = coldb.Aggregate(env, qty, coldb.AggSum, nil)
	})
	return sum
}

// Q6 runs TPC-H Q6: the forecast-revenue-change query —
//
//	SELECT SUM(extendedprice*discount) FROM lineitem
//	WHERE shipdate in [day, day+1y) AND discount BETWEEN 0.05 AND 0.07
//	  AND quantity < 24
func Q6(ex *profile.Exec, d *Data, startDay int64) float64 {
	li := d.DB.Table("lineitem")
	var cand *coldb.CandList
	ex.Run(OpSelection, func(env *ddc.Env) {
		cand = coldb.SelectI64(env, li.Col("l_shipdate"),
			coldb.PredI64{Op: coldb.CmpBetween, Lo: startDay, Hi: startDay + YearDays - 1}, nil)
		cand = coldb.SelectF64(env, li.Col("l_discount"),
			coldb.PredF64{Op: coldb.CmpBetween, Lo: 0.0499, Hi: 0.0701}, cand)
		cand = coldb.SelectF64(env, li.Col("l_quantity"),
			coldb.PredF64{Op: coldb.CmpLT, Lo: 24}, cand)
	})
	var rev *coldb.Column
	ex.Run(OpExpression, func(env *ddc.Env) {
		rev = coldb.ExprMulAddColumns(env, li.Col("l_extendedprice"), li.Col("l_discount"), 1, cand)
	})
	var sum float64
	ex.Run(OpAggregation, func(env *ddc.Env) {
		sum = coldb.Aggregate(env, rev, coldb.AggSum, nil)
	})
	return sum
}

// Q3 runs TPC-H Q3: the shipping-priority query —
//
//	SELECT l_orderkey, SUM(extendedprice*(1-discount)) AS revenue
//	FROM customer, orders, lineitem
//	WHERE c_mktsegment = $SEG AND c_custkey = o_custkey
//	  AND l_orderkey = o_orderkey AND o_orderdate < $DAY AND l_shipdate > $DAY
//	GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10
func Q3(ex *profile.Exec, d *Data, segment, day int64) []coldb.GroupRow {
	db := d.DB
	cust, orders, li := db.Table("customer"), db.Table("orders"), db.Table("lineitem")

	var custCand *coldb.CandList
	ex.Run(OpSelection, func(env *ddc.Env) {
		custCand = coldb.SelectI64(env, cust.Col("c_mktsegment"),
			coldb.PredI64{Op: coldb.CmpEQ, Lo: segment}, nil)
	})

	var custIdx *coldb.HashIndex
	var orderMatch coldb.JoinResult
	ex.Run(OpHashJoin, func(env *ddc.Env) {
		custIdx = coldb.BuildHashIndex(env, cust.Col("c_custkey"), custCand)
		orderCand := coldb.SelectI64(env, orders.Col("o_orderdate"),
			coldb.PredI64{Op: coldb.CmpLT, Lo: day}, nil)
		orderMatch = coldb.HashJoinProbe(env, custIdx, orders.Col("o_custkey"), orderCand)
	})

	var liMatch coldb.JoinResult
	ex.Run(OpHashJoin, func(env *ddc.Env) {
		okCol := coldb.GatherI64(env, orders.Col("o_orderkey"), orderMatch.Outer)
		orderIdx := coldb.BuildHashIndex(env, okCol, nil)
		liCand := coldb.SelectI64(env, li.Col("l_shipdate"),
			coldb.PredI64{Op: coldb.CmpGT, Lo: day}, nil)
		liMatch = coldb.HashJoinProbe(env, orderIdx, li.Col("l_orderkey"), liCand)
	})

	var rev *coldb.Column
	ex.Run(OpExpression, func(env *ddc.Env) {
		price := coldb.GatherF64(env, li.Col("l_extendedprice"), liMatch.Outer)
		disc := coldb.GatherF64(env, li.Col("l_discount"), liMatch.Outer)
		rev = coldb.ExprRevenue(env, price, disc, nil)
	})

	var top []coldb.GroupRow
	ex.Run(OpGroup, func(env *ddc.Env) {
		keys := coldb.GatherI64(env, li.Col("l_orderkey"), liMatch.Outer)
		g := coldb.GroupBySum(env, keys, rev, nil, max(keys.N, 16))
		top = coldb.TopK(env, g.Rows(env), 10)
	})
	return top
}

// Q9 runs TPC-H Q9: the product-type profit-measure query —
//
//	SELECT nation, year, SUM(extendedprice*(1-discount) - supplycost*quantity)
//	FROM part, supplier, lineitem, partsupp, orders, nation
//	WHERE p_name LIKE '%green%' AND <join predicates>
//	GROUP BY nation, year
//
// as eight operators, in MonetDB's full-materialisation style (every
// operator processes complete column vectors; intermediates are
// materialised temporaries — the reason Projection and HashJoin move 189 GB
// and 87 GB of remote data in Figure 10): Projection (lineitem payload),
// HashJoin (lineitem ⋈ partsupp on the composite key, full-size random
// probes), Selection (the part colour filter applied via the part join),
// Lookup (supplier → nation), MergeJoin (lineitem ⋈ orders on the sorted
// orderkey), Expression (amount), Group (nation×year), Aggregation (final
// sweep).
func Q9(ex *profile.Exec, d *Data, color int64) []coldb.GroupRow {
	db := d.DB
	part, supp, ps := db.Table("part"), db.Table("supplier"), db.Table("partsupp")
	orders, li := db.Table("orders"), db.Table("lineitem")

	// Projection: materialise the full lineitem payload (MonetDB evaluates
	// over complete BATs; the filter applies later).
	var lSupp, lPartK *coldb.Column
	var lQty, lPrice, lDisc *coldb.Column
	ex.Run(OpProjection, func(env *ddc.Env) {
		lPartK = coldb.Project(env, li.Col("l_partkey"), nil)
		lSupp = coldb.Project(env, li.Col("l_suppkey"), nil)
		lQty = coldb.Project(env, li.Col("l_quantity"), nil)
		lPrice = coldb.Project(env, li.Col("l_extendedprice"), nil)
		lDisc = coldb.Project(env, li.Col("l_discount"), nil)
	})

	// HashJoin: ⋈ partsupp on the composite (partkey, suppkey) key — the
	// full lineitem randomly probes a partsupp-sized index.
	var supplyCost *coldb.Column
	ex.Run(OpHashJoin, func(env *ddc.Env) {
		idx := coldb.BuildHashIndex(env, ps.Col("ps_key"), nil)
		composite := coldb.MapI64(env, "l_pskey", coldb.I64, 2, lPartK, lSupp, nil, CompositeKey)
		match := coldb.HashJoinProbe(env, idx, composite, nil)
		supplyCost = coldb.GatherF64(env, ps.Col("ps_supplycost"), match.Inner)
	})

	// Selection: the colour predicate, evaluated per lineitem through the
	// part dimension (p_color[l_partkey] == color).
	var keep *coldb.CandList
	ex.Run(OpSelection, func(env *ddc.Env) {
		colors := coldb.LookupJoin(env, part.Col("p_color"), lPartK, nil)
		keep = coldb.SelectI64(env, colors, coldb.PredI64{Op: coldb.CmpEQ, Lo: color}, nil)
	})

	// Lookup: supplier → nation (positional dimension access, full column).
	var nation *coldb.Column
	ex.Run(OpLookup, func(env *ddc.Env) {
		nation = coldb.LookupJoin(env, supp.Col("s_nationkey"), lSupp, nil)
	})

	// MergeJoin: ⋈ orders on the sorted orderkey to fetch the order year.
	var year *coldb.Column
	ex.Run(OpMergeJoin, func(env *ddc.Env) {
		mj := coldb.MergeJoin(env, li.Col("l_orderkey"), orders.Col("o_orderkey"))
		dates := coldb.GatherI64(env, orders.Col("o_orderdate"), mj.Inner)
		year = coldb.MapI64(env, "o_year", coldb.I32, 2, dates, nil, nil,
			func(day, _ int64) int64 { return day / YearDays })
	})

	// Expression: amount = price*(1-disc) − supplycost*qty over the full
	// vectors.
	var amount *coldb.Column
	ex.Run(OpExpression, func(env *ddc.Env) {
		revenue := coldb.ExprRevenue(env, lPrice, lDisc, nil)
		cost := coldb.ExprMulAddColumns(env, supplyCost, lQty, 1, nil)
		amount = coldb.MapF64(env, "amount", 2, revenue, cost, nil,
			func(revenue, cost float64) float64 { return revenue - cost })
	})

	// Group: (nation, year) hash aggregation over the selected rows.
	var g *coldb.GroupAgg
	ex.Run(OpGroup, func(env *ddc.Env) {
		keys := coldb.MapI64(env, "nation_year", coldb.I64, 2, nation, year, nil,
			func(nation, year int64) int64 { return nation*100 + year })
		g = coldb.GroupBySum(env, keys, amount, keep, Nations*8)
	})

	// Aggregation: final sweep of the group table, sorted for stable output.
	var rows []coldb.GroupRow
	ex.Run(OpAggregation, func(env *ddc.Env) {
		rows = g.Rows(env)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	})
	return rows
}

// Q1Row is one group of Q1's pricing summary.
type Q1Row struct {
	ReturnFlag int64
	LineStatus int64
	SumQty     float64
	SumPrice   float64
	SumDisc    float64 // sum(extendedprice*(1-discount))
	SumCharge  float64 // sum(extendedprice*(1-discount)*(1+tax))
	Count      int64
}

// Q1 runs TPC-H Q1, the pricing summary report —
//
//	SELECT returnflag, linestatus, SUM(quantity), SUM(extendedprice),
//	       SUM(extendedprice*(1-discount)),
//	       SUM(extendedprice*(1-discount)*(1+tax)), COUNT(*)
//	FROM lineitem WHERE shipdate <= $DAY
//	GROUP BY returnflag, linestatus
//
// as a selection, two expression evaluations, and grouped aggregations. It
// is not part of the paper's evaluation set (Q9/Q3/Q6 have the highest
// disaggregation cost) but exercises the scan+group pattern end to end.
func Q1(ex *profile.Exec, d *Data, cutDay int64) []Q1Row {
	li := d.DB.Table("lineitem")
	var cand *coldb.CandList
	ex.Run(OpSelection, func(env *ddc.Env) {
		cand = coldb.SelectI64(env, li.Col("l_shipdate"),
			coldb.PredI64{Op: coldb.CmpLE, Lo: cutDay}, nil)
	})
	var discPrice, charge *coldb.Column
	ex.Run(OpExpression, func(env *ddc.Env) {
		discPrice = coldb.ExprRevenue(env, li.Col("l_extendedprice"), li.Col("l_discount"), cand)
		charge = coldb.MapF64(env, "charge", 3, li.Col("l_tax"), discPrice, cand,
			func(tax, discPrice float64) float64 { return discPrice * (1 + tax) })
	})
	// Grouped aggregation: key = returnflag*2 + linestatus; four parallel
	// sums via the group table (one per measure).
	var gQty, gPrice, gDisc, gCharge *coldb.GroupAgg
	ex.Run(OpGroup, func(env *ddc.Env) {
		keys := coldb.MapI64(env, "q1key", coldb.I64, 3, li.Col("l_returnflag"), li.Col("l_linestatus"), cand,
			func(flag, status int64) int64 { return flag*2 + status })
		qty := coldb.Project(env, li.Col("l_quantity"), cand)
		price := coldb.Project(env, li.Col("l_extendedprice"), cand)
		gQty = coldb.GroupBySum(env, keys, qty, nil, 8)
		gPrice = coldb.GroupBySum(env, keys, price, nil, 8)
		gDisc = coldb.GroupBySum(env, keys, discPrice, nil, 8)
		gCharge = coldb.GroupBySum(env, keys, charge, nil, 8)
	})
	var out []Q1Row
	ex.Run(OpAggregation, func(env *ddc.Env) {
		byKey := map[int64]*Q1Row{}
		for _, r := range gQty.Rows(env) {
			byKey[r.Key] = &Q1Row{
				ReturnFlag: r.Key / 2, LineStatus: r.Key % 2,
				SumQty: r.Sum, Count: r.Count,
			}
		}
		for _, r := range gPrice.Rows(env) {
			byKey[r.Key].SumPrice = r.Sum
		}
		for _, r := range gDisc.Rows(env) {
			byKey[r.Key].SumDisc = r.Sum
		}
		for _, r := range gCharge.Rows(env) {
			byKey[r.Key].SumCharge = r.Sum
		}
		keys := make([]int64, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			out = append(out, *byKey[k])
		}
	})
	return out
}

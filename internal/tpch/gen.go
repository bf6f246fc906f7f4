// Package tpch generates a TPC-H-style analytical schema at reduced scale
// and implements physical plans for the queries the paper evaluates: the
// §5.1 microbenchmark Q_filter, and TPC-H Q3, Q6, and Q9 (the three queries
// with the highest cost of disaggregation, Figure 3). The scale rule from
// DESIGN.md applies: row counts shrink, the compute cache shrinks with
// them, and hardware costs stay at the paper's absolute values, preserving
// every figure's shape.
package tpch

import (
	"math/rand"

	"teleport/internal/coldb"
)

// Days span the TPC-H date domain 1992-01-01 .. 1998-12-31 as day numbers.
const (
	DateMax   = 2556
	YearDays  = 365
	GreenPart = 7 // the p_color id Q9 filters ("%green%")
	Segments  = 5 // c_mktsegment domain; Q3 uses segment 0 ("BUILDING")
	Nations   = 25
)

// Config controls generation.
type Config struct {
	// Scale is the micro scale factor: Lineitem has 60,000·Scale rows
	// (Scale 1 ≈ 4 MB database; the paper's SF50 shape is reproduced by
	// scaling the cache with the data).
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// Data is the loaded database plus its cardinalities.
type Data struct {
	DB                *coldb.DB
	L, O, C, P, S, PS int
}

// CompositeKey packs a (partkey, suppkey) pair into the single int64 key the
// partsupp hash index uses.
func CompositeKey(partkey, suppkey int64) int64 { return partkey*100000 + suppkey }

// Load generates the schema into db. Loading bypasses the compute cache —
// in a DDC the database is born in the memory pool (§2.1). Every value goes
// into its column as it is drawn; nothing is staged on the host.
func Load(db *coldb.DB, cfg Config) *Data {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	L := int(60000 * cfg.Scale)
	O := max(L/4, 1)
	C := max(O/10, 1)
	P := max(L/30, 1)
	S := max(L/600, 10)
	PS := P * 4

	open := func(t *coldb.Table, name string) coldb.ColumnWriter { return t.Col(name).Writer(db.P) }

	// part: dense partkey = row id, a colour id, retail price.
	part := db.CreateTable("part", P,
		coldb.ColumnSpec{Name: "p_partkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "p_color", Type: coldb.I32},
		coldb.ColumnSpec{Name: "p_retailprice", Type: coldb.F64},
	)
	pKey, pColor, pPrice := open(part, "p_partkey"), open(part, "p_color"), open(part, "p_retailprice")
	for i := 0; i < P; i++ {
		pKey.I64(int64(i))
		pColor.I64(int64(r.Intn(92))) // TPC-H has 92 colour words
		pPrice.F64(900 + float64(r.Intn(1200)))
	}

	// supplier: dense suppkey, nation.
	supp := db.CreateTable("supplier", S,
		coldb.ColumnSpec{Name: "s_suppkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "s_nationkey", Type: coldb.I32},
	)
	sKey, sNation := open(supp, "s_suppkey"), open(supp, "s_nationkey")
	for i := 0; i < S; i++ {
		sKey.I64(int64(i))
		sNation.I64(int64(r.Intn(Nations)))
	}

	// partsupp: 4 suppliers per part, composite key, supply cost.
	ps := db.CreateTable("partsupp", PS,
		coldb.ColumnSpec{Name: "ps_key", Type: coldb.I64},
		coldb.ColumnSpec{Name: "ps_supplycost", Type: coldb.F64},
	)
	// psPair is partsupp row i's (partkey, suppkey).
	psPair := func(i int) (pk, sk int64) {
		pk = int64(i / 4)
		return pk, (pk + int64(i%4)*int64(S/4+1)) % int64(S)
	}
	psKey, psCost := open(ps, "ps_key"), open(ps, "ps_supplycost")
	for i := 0; i < PS; i++ {
		psKey.I64(CompositeKey(psPair(i)))
		psCost.F64(1 + float64(r.Intn(1000))/10)
	}

	// customer: dense custkey, market segment, nation.
	cust := db.CreateTable("customer", C,
		coldb.ColumnSpec{Name: "c_custkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "c_mktsegment", Type: coldb.I32},
		coldb.ColumnSpec{Name: "c_nationkey", Type: coldb.I32},
	)
	cKey, cSeg, cNat := open(cust, "c_custkey"), open(cust, "c_mktsegment"), open(cust, "c_nationkey")
	for i := 0; i < C; i++ {
		cKey.I64(int64(i))
		cSeg.I64(int64(r.Intn(Segments)))
		cNat.I64(int64(r.Intn(Nations)))
	}

	// orders: dense orderkey = row id (so lineitem sorted by orderkey can
	// merge-join it), customer, date.
	orders := db.CreateTable("orders", O,
		coldb.ColumnSpec{Name: "o_orderkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "o_custkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "o_orderdate", Type: coldb.I32},
	)
	oKey, oCust, oDate := open(orders, "o_orderkey"), open(orders, "o_custkey"), open(orders, "o_orderdate")
	for i := 0; i < O; i++ {
		oKey.I64(int64(i))
		oCust.I64(int64(r.Intn(C)))
		oDate.I64(int64(r.Intn(DateMax)))
	}

	// lineitem: sorted by orderkey, FK references into partsupp pairs so
	// Q9's composite probe always finds its supply cost.
	li := db.CreateTable("lineitem", L,
		coldb.ColumnSpec{Name: "l_orderkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "l_partkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "l_suppkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "l_quantity", Type: coldb.F64},
		coldb.ColumnSpec{Name: "l_extendedprice", Type: coldb.F64},
		coldb.ColumnSpec{Name: "l_discount", Type: coldb.F64},
		coldb.ColumnSpec{Name: "l_tax", Type: coldb.F64},
		coldb.ColumnSpec{Name: "l_shipdate", Type: coldb.I32},
		coldb.ColumnSpec{Name: "l_returnflag", Type: coldb.I32},
		coldb.ColumnSpec{Name: "l_linestatus", Type: coldb.I32},
	)
	lOrder, lPart, lSupp := open(li, "l_orderkey"), open(li, "l_partkey"), open(li, "l_suppkey")
	lQty, lPrice := open(li, "l_quantity"), open(li, "l_extendedprice")
	lDisc, lTax := open(li, "l_discount"), open(li, "l_tax")
	lShip, lFlag, lStatus := open(li, "l_shipdate"), open(li, "l_returnflag"), open(li, "l_linestatus")
	for i := 0; i < L; i++ {
		lOrder.I64(int64(i * O / L)) // non-decreasing: sorted by orderkey
		pk, sk := psPair(r.Intn(PS))
		lPart.I64(pk)
		lSupp.I64(sk)
		lQty.F64(float64(1 + r.Intn(50)))
		lPrice.F64(901 + float64(r.Intn(104000))/priceDiv)
		lDisc.F64(float64(r.Intn(11)) / 100)
		lTax.F64(float64(r.Intn(9)) / 100)
		lShip.I64(int64(r.Intn(DateMax)))
		lFlag.I64(int64(r.Intn(3)))   // A / N / R
		lStatus.I64(int64(r.Intn(2))) // O / F
	}
	return &Data{DB: db, L: L, O: O, C: C, P: P, S: S, PS: PS}
}

const priceDiv = 10 // price quantisation divisor

package tpch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/ddc"
)

// stageI64 and stageF64 are the bulk loads referenceLoad was written over:
// one ground-truth store per value from a staged slice.
func stageI64(db *coldb.DB, c *coldb.Column, vals []int64) {
	for i, v := range vals {
		if c.Type == coldb.I32 {
			db.P.Space.WriteI32(c.Addr(i), int32(v))
		} else {
			db.P.Space.WriteI64(c.Addr(i), v)
		}
	}
}

func stageF64(db *coldb.DB, c *coldb.Column, vals []float64) {
	for i, v := range vals {
		db.P.Space.WriteU64(c.Addr(i), math.Float64bits(v))
	}
}

// Raw holds plain-Go copies of the generated columns.
type Raw struct {
	LOrderkey, LPartkey, LSuppkey []int64
	LQuantity, LExtPrice, LDisc   []float64
	LTax                          []float64
	LShipdate                     []int64
	LReturnflag, LLinestatus      []int64
	OCustkey, OOrderdate          []int64
	CMktsegment, CNationkey       []int64
	PColor                        []int64
	SNationkey                    []int64
	PSKey                         []int64
	PSSupplyCost                  []float64
}

// referenceLoad is the loader Load replaced, kept as its oracle: every
// column staged in a host slice, then copied into the address space. It
// returns the staged slices as the plain-Go copy the naive queries read.
func referenceLoad(db *coldb.DB, cfg Config) (*Data, *Raw) {
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

	d := &Data{DB: db, L: L, O: O, C: C, P: P, S: S, PS: PS}
	raw := &Raw{}

	// part: dense partkey = row id, a colour id, retail price.
	part := db.CreateTable("part", P,
		coldb.ColumnSpec{Name: "p_partkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "p_color", Type: coldb.I32},
		coldb.ColumnSpec{Name: "p_retailprice", Type: coldb.F64},
	)
	pColor := make([]int64, P)
	pKey := make([]int64, P)
	pPrice := make([]float64, P)
	for i := 0; i < P; i++ {
		pKey[i] = int64(i)
		pColor[i] = int64(r.Intn(92)) // TPC-H has 92 colour words
		pPrice[i] = 900 + float64(r.Intn(1200))
	}
	stageI64(db, part.Col("p_partkey"), pKey)
	stageI64(db, part.Col("p_color"), pColor)
	stageF64(db, part.Col("p_retailprice"), pPrice)
	raw.PColor = pColor

	// supplier: dense suppkey, nation.
	supp := db.CreateTable("supplier", S,
		coldb.ColumnSpec{Name: "s_suppkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "s_nationkey", Type: coldb.I32},
	)
	sKey := make([]int64, S)
	sNation := make([]int64, S)
	for i := 0; i < S; i++ {
		sKey[i] = int64(i)
		sNation[i] = int64(r.Intn(Nations))
	}
	stageI64(db, supp.Col("s_suppkey"), sKey)
	stageI64(db, supp.Col("s_nationkey"), sNation)
	raw.SNationkey = sNation

	// partsupp: 4 suppliers per part, composite key, supply cost.
	ps := db.CreateTable("partsupp", PS,
		coldb.ColumnSpec{Name: "ps_key", Type: coldb.I64},
		coldb.ColumnSpec{Name: "ps_supplycost", Type: coldb.F64},
	)
	psKey := make([]int64, PS)
	psCost := make([]float64, PS)
	psPart := make([]int64, PS)
	psSupp := make([]int64, PS)
	for i := 0; i < PS; i++ {
		pk := int64(i / 4)
		sk := (pk + int64(i%4)*int64(S/4+1)) % int64(S)
		psPart[i], psSupp[i] = pk, sk
		psKey[i] = CompositeKey(pk, sk)
		psCost[i] = 1 + float64(r.Intn(1000))/10
	}
	stageI64(db, ps.Col("ps_key"), psKey)
	stageF64(db, ps.Col("ps_supplycost"), psCost)
	raw.PSKey = psKey
	raw.PSSupplyCost = psCost

	// customer: dense custkey, market segment, nation.
	cust := db.CreateTable("customer", C,
		coldb.ColumnSpec{Name: "c_custkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "c_mktsegment", Type: coldb.I32},
		coldb.ColumnSpec{Name: "c_nationkey", Type: coldb.I32},
	)
	cKey := make([]int64, C)
	cSeg := make([]int64, C)
	cNat := make([]int64, C)
	for i := 0; i < C; i++ {
		cKey[i] = int64(i)
		cSeg[i] = int64(r.Intn(Segments))
		cNat[i] = int64(r.Intn(Nations))
	}
	stageI64(db, cust.Col("c_custkey"), cKey)
	stageI64(db, cust.Col("c_mktsegment"), cSeg)
	stageI64(db, cust.Col("c_nationkey"), cNat)
	raw.CMktsegment = cSeg
	raw.CNationkey = cNat

	// orders: dense orderkey = row id (so lineitem sorted by orderkey can
	// merge-join it), customer, date.
	orders := db.CreateTable("orders", O,
		coldb.ColumnSpec{Name: "o_orderkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "o_custkey", Type: coldb.I64},
		coldb.ColumnSpec{Name: "o_orderdate", Type: coldb.I32},
	)
	oKey := make([]int64, O)
	oCust := make([]int64, O)
	oDate := make([]int64, O)
	for i := 0; i < O; i++ {
		oKey[i] = int64(i)
		oCust[i] = int64(r.Intn(C))
		oDate[i] = int64(r.Intn(DateMax))
	}
	stageI64(db, orders.Col("o_orderkey"), oKey)
	stageI64(db, orders.Col("o_custkey"), oCust)
	stageI64(db, orders.Col("o_orderdate"), oDate)
	raw.OCustkey = oCust
	raw.OOrderdate = oDate

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
	lOrder := make([]int64, L)
	lPart := make([]int64, L)
	lSupp := make([]int64, L)
	lQty := make([]float64, L)
	lPrice := make([]float64, L)
	lDisc := make([]float64, L)
	lTax := make([]float64, L)
	lShip := make([]int64, L)
	lFlag := make([]int64, L)
	lStatus := make([]int64, L)
	for i := 0; i < L; i++ {
		lOrder[i] = int64(i * O / L) // non-decreasing: sorted by orderkey
		psRow := r.Intn(PS)
		lPart[i] = psPart[psRow]
		lSupp[i] = psSupp[psRow]
		lQty[i] = float64(1 + r.Intn(50))
		lPrice[i] = 901 + float64(r.Intn(104000))/priceDiv
		lDisc[i] = float64(r.Intn(11)) / 100
		lTax[i] = float64(r.Intn(9)) / 100
		lShip[i] = int64(r.Intn(DateMax))
		lFlag[i] = int64(r.Intn(3))   // A / N / R
		lStatus[i] = int64(r.Intn(2)) // O / F
	}
	stageI64(db, li.Col("l_orderkey"), lOrder)
	stageI64(db, li.Col("l_partkey"), lPart)
	stageI64(db, li.Col("l_suppkey"), lSupp)
	stageF64(db, li.Col("l_quantity"), lQty)
	stageF64(db, li.Col("l_extendedprice"), lPrice)
	stageF64(db, li.Col("l_discount"), lDisc)
	stageF64(db, li.Col("l_tax"), lTax)
	stageI64(db, li.Col("l_shipdate"), lShip)
	stageI64(db, li.Col("l_returnflag"), lFlag)
	stageI64(db, li.Col("l_linestatus"), lStatus)
	raw.LOrderkey = lOrder
	raw.LPartkey = lPart
	raw.LSuppkey = lSupp
	raw.LQuantity = lQty
	raw.LExtPrice = lPrice
	raw.LDisc = lDisc
	raw.LTax = lTax
	raw.LShipdate = lShip
	raw.LReturnflag = lFlag
	raw.LLinestatus = lStatus
	return d, raw
}

// The streamed load must draw the same random numbers in the same order and
// leave the same bytes in every column as the staged load did.
func TestLoadMatchesStagedReference(t *testing.T) {
	for _, scale := range []float64{0.1, 1} {
		cfg := Config{Scale: scale, Seed: 7}
		p, pr := ddc.MustMachine(ddc.Linux()).NewProcess(), ddc.MustMachine(ddc.Linux()).NewProcess()
		got := Load(coldb.NewDB(p), cfg)
		want, _ := referenceLoad(coldb.NewDB(pr), cfg)
		if got.L != want.L || got.O != want.O || got.C != want.C || got.P != want.P || got.S != want.S || got.PS != want.PS {
			t.Fatalf("scale %v: cardinalities %+v, reference %+v", scale, got, want)
		}
		for _, name := range want.DB.Tables() {
			tab, ref := got.DB.Table(name), want.DB.Table(name)
			for _, cn := range ref.Columns() {
				c, rc := tab.Col(cn), ref.Col(cn)
				if c.Base != rc.Base || c.N != rc.N || c.Type != rc.Type {
					t.Fatalf("scale %v: column %s.%s is %+v, reference %+v", scale, name, cn, c, rc)
				}
				b, rb := make([]byte, c.Bytes()), make([]byte, rc.Bytes())
				p.Space.ReadAt(c.Base, b)
				pr.Space.ReadAt(rc.Base, rb)
				if !bytes.Equal(b, rb) {
					t.Fatalf("scale %v: column %s.%s differs from the reference", scale, name, cn)
				}
			}
		}
	}
}

// Load allocates tables, columns and writers — a count that does not grow
// with the scale (frames aside: the address space materialises one per
// touched page).
func TestLoadAllocsIndependentOfScale(t *testing.T) {
	allocs := func(scale float64) float64 {
		var frames int64
		n := testing.AllocsPerRun(3, func() {
			p := ddc.MustMachine(ddc.Linux()).NewProcess()
			Load(coldb.NewDB(p), Config{Scale: scale, Seed: 3})
			frames = p.Space.Pages()
		})
		return n - float64(frames)
	}
	small, large := allocs(0.1), allocs(2)
	if large > small+4 { // slack for the frame table, which grows by doubling
		t.Fatalf("Load allocates %.0f objects beyond frames at scale 2, %.0f at scale 0.1", large, small)
	}
}

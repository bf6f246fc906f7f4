package tpch

import (
	"bytes"
	"math"
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

// testData is a loaded database with the plain-Go copy of its columns the
// naive queries read.
type testData struct {
	*Data
	Raw *Raw
}

// loadLocal loads the database into a Linux process and takes its plain-Go
// copy from referenceLoad run into a throwaway one.
func loadLocal(t *testing.T, scale float64) (testData, *profile.Exec) {
	t.Helper()
	cfg := Config{Scale: scale, Seed: 42}
	p := ddc.MustMachine(ddc.Linux()).NewProcess()
	d := Load(coldb.NewDB(p), cfg)
	_, raw := referenceLoad(coldb.NewDB(ddc.MustMachine(ddc.Linux()).NewProcess()), cfg)
	return testData{d, raw}, profile.NewExec(sim.NewThread("q"), p, nil)
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

func TestLoadCardinalities(t *testing.T) {
	d, _ := loadLocal(t, 0.1)
	if d.L != 6000 || d.O != 1500 || d.C != 150 || d.P != 200 || d.PS != 800 {
		t.Fatalf("cardinalities: %+v", d)
	}
	if d.S < 10 {
		t.Fatalf("suppliers = %d", d.S)
	}
	if d.DB.Bytes() <= 0 {
		t.Fatal("empty database")
	}
	// lineitem must be sorted by orderkey for the merge join.
	for i := 1; i < d.L; i++ {
		if d.Raw.LOrderkey[i] < d.Raw.LOrderkey[i-1] {
			t.Fatal("lineitem not sorted by orderkey")
		}
	}
	// Every lineitem's (partkey, suppkey) must exist in partsupp.
	psSet := map[int64]bool{}
	for _, k := range d.Raw.PSKey {
		psSet[k] = true
	}
	for i := 0; i < d.L; i++ {
		if !psSet[CompositeKey(d.Raw.LPartkey[i], d.Raw.LSuppkey[i])] {
			t.Fatalf("lineitem %d has dangling partsupp reference", i)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	d1, _ := loadLocal(t, 0.05)
	d2, _ := loadLocal(t, 0.05)
	shipdates := func(d testData) []byte {
		c := d.DB.Table("lineitem").Col("l_shipdate")
		b := make([]byte, c.Bytes())
		d.DB.P.Space.ReadAt(c.Base, b)
		return b
	}
	if !bytes.Equal(shipdates(d1), shipdates(d2)) {
		t.Fatal("generation not deterministic")
	}
}

func TestQFilterMatchesNaive(t *testing.T) {
	d, ex := loadLocal(t, 0.1)
	const cut = 1200
	got := QFilter(ex, d.Data, cut)
	var want float64
	for i := 0; i < d.L; i++ {
		if d.Raw.LShipdate[i] < cut {
			want += d.Raw.LQuantity[i]
		}
	}
	if !approxEq(got, want) {
		t.Fatalf("QFilter = %v, want %v", got, want)
	}
	prof := ex.Profile()
	if len(prof) != 3 {
		t.Fatalf("QFilter must profile 3 operators, got %v", prof)
	}
}

func TestQ6MatchesNaive(t *testing.T) {
	d, ex := loadLocal(t, 0.1)
	const start = 730
	got := Q6(ex, d.Data, start)
	var want float64
	for i := 0; i < d.L; i++ {
		if d.Raw.LShipdate[i] >= start && d.Raw.LShipdate[i] < start+YearDays &&
			d.Raw.LDisc[i] >= 0.0499 && d.Raw.LDisc[i] <= 0.0701 &&
			d.Raw.LQuantity[i] < 24 {
			want += d.Raw.LExtPrice[i] * d.Raw.LDisc[i]
		}
	}
	if !approxEq(got, want) {
		t.Fatalf("Q6 = %v, want %v", got, want)
	}
}

func naiveQ3(d testData, segment, day int64) map[int64]float64 {
	want := map[int64]float64{}
	for i := 0; i < d.L; i++ {
		if d.Raw.LShipdate[i] <= day {
			continue
		}
		ok := d.Raw.LOrderkey[i]
		if d.Raw.OOrderdate[ok] >= day {
			continue
		}
		cust := d.Raw.OCustkey[ok]
		if d.Raw.CMktsegment[cust] != segment {
			continue
		}
		want[ok] += d.Raw.LExtPrice[i] * (1 - d.Raw.LDisc[i])
	}
	return want
}

func TestQ3MatchesNaive(t *testing.T) {
	d, ex := loadLocal(t, 0.1)
	const segment, day = 0, 1100
	top := Q3(ex, d.Data, segment, day)
	want := naiveQ3(d, segment, day)
	if len(top) == 0 {
		t.Fatal("Q3 returned nothing")
	}
	for _, row := range top {
		if !approxEq(row.Sum, want[row.Key]) {
			t.Fatalf("Q3 order %d revenue = %v, want %v", row.Key, row.Sum, want[row.Key])
		}
	}
	// The first row must be the global maximum.
	var best float64
	for _, v := range want {
		if v > best {
			best = v
		}
	}
	if !approxEq(top[0].Sum, best) {
		t.Fatalf("Q3 top revenue = %v, want %v", top[0].Sum, best)
	}
}

func naiveQ9(d testData, color int64) map[int64]float64 {
	cost := map[int64]float64{}
	for i, k := range d.Raw.PSKey {
		cost[k] = d.Raw.PSSupplyCost[i]
	}
	want := map[int64]float64{}
	for i := 0; i < d.L; i++ {
		pk := d.Raw.LPartkey[i]
		if d.Raw.PColor[pk] != color {
			continue
		}
		sk := d.Raw.LSuppkey[i]
		nation := d.Raw.SNationkey[sk]
		year := d.Raw.OOrderdate[d.Raw.LOrderkey[i]] / YearDays
		amount := d.Raw.LExtPrice[i]*(1-d.Raw.LDisc[i]) -
			cost[CompositeKey(pk, sk)]*d.Raw.LQuantity[i]
		want[nation*100+year] += amount
	}
	return want
}

func TestQ9MatchesNaive(t *testing.T) {
	d, ex := loadLocal(t, 0.1)
	rows := Q9(ex, d.Data, GreenPart)
	want := naiveQ9(d, GreenPart)
	if len(rows) != len(want) {
		t.Fatalf("Q9 groups = %d, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		if !approxEq(row.Sum, want[row.Key]) {
			t.Fatalf("Q9 group %d = %v, want %v", row.Key, row.Sum, want[row.Key])
		}
	}
	// Exactly the eight named operators (Figure 18's "All" level) must
	// appear in the profile.
	q9Ops := []string{
		OpSelection, OpHashJoin, OpProjection, OpLookup,
		OpMergeJoin, OpExpression, OpGroup, OpAggregation,
	}
	prof := ex.Profile()
	if len(prof) != len(q9Ops) {
		t.Fatalf("Q9 profiled %d operators, want %d: %+v", len(prof), len(q9Ops), prof)
	}
	seen := map[string]bool{}
	for _, o := range prof {
		seen[o.Name] = true
	}
	for _, name := range q9Ops {
		if !seen[name] {
			t.Fatalf("operator %s missing from profile", name)
		}
	}
}

// TestQueriesIdenticalAcrossPlatforms is the core integration check: the
// same query must produce the same answer on Linux, base DDC, and TELEPORT
// — and execution times must order local < TELEPORT < base DDC.
func TestQueriesIdenticalAcrossPlatforms(t *testing.T) {
	type result struct {
		sum  float64
		time sim.Time
	}
	run := func(cfg ddc.Config, push bool) result {
		m := ddc.MustMachine(cfg)
		p := m.NewProcess()
		d := Load(coldb.NewDB(p), Config{Scale: 0.2, Seed: 7})
		th := sim.NewThread("q")
		ex := profile.NewExec(th, p, nil)
		if push {
			ex = profile.NewExec(th, p, core.NewRuntime(p, 1))
			ex.Push(OpSelection, OpProjection, OpAggregation)
		}
		sum := QFilter(ex, d, 1200)
		return result{sum: sum, time: ex.Total()}
	}
	cacheBytes := int64(96 * mem.PageSize) // small slice of the ~1.5MB working set
	local := run(ddc.Linux(), false)
	base := run(ddc.BaseDDC(cacheBytes), false)
	tele := run(ddc.BaseDDC(cacheBytes), true)

	if !approxEq(local.sum, base.sum) || !approxEq(local.sum, tele.sum) {
		t.Fatalf("answers differ: local %v, base %v, teleport %v", local.sum, base.sum, tele.sum)
	}
	if !(local.time < tele.time && tele.time < base.time) {
		t.Fatalf("time ordering broken: local %v, teleport %v, base %v",
			local.time, tele.time, base.time)
	}
}

func TestQ1MatchesNaive(t *testing.T) {
	d, ex := loadLocal(t, 0.1)
	const cut = 2400
	rows := Q1(ex, d.Data, cut)
	type agg struct {
		qty, price, disc, charge float64
		count                    int64
	}
	want := map[int64]*agg{}
	for i := 0; i < d.L; i++ {
		if d.Raw.LShipdate[i] > cut {
			continue
		}
		k := d.Raw.LReturnflag[i]*2 + d.Raw.LLinestatus[i]
		a := want[k]
		if a == nil {
			a = &agg{}
			want[k] = a
		}
		dp := d.Raw.LExtPrice[i] * (1 - d.Raw.LDisc[i])
		a.qty += d.Raw.LQuantity[i]
		a.price += d.Raw.LExtPrice[i]
		a.disc += dp
		a.charge += dp * (1 + d.Raw.LTax[i])
		a.count++
	}
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	prev := int64(-1)
	for _, r := range rows {
		k := r.ReturnFlag*2 + r.LineStatus
		if k <= prev {
			t.Fatal("rows not sorted by group key")
		}
		prev = k
		w := want[k]
		if w == nil {
			t.Fatalf("unexpected group %d/%d", r.ReturnFlag, r.LineStatus)
		}
		if !approxEq(r.SumQty, w.qty) || !approxEq(r.SumPrice, w.price) ||
			!approxEq(r.SumDisc, w.disc) || !approxEq(r.SumCharge, w.charge) ||
			r.Count != w.count {
			t.Fatalf("group %d/%d = %+v, want %+v", r.ReturnFlag, r.LineStatus, r, w)
		}
	}
}

// TestPushedQueriesMatchUnpushed: every query must produce identical
// answers when its operators are Teleported. Q9 runs under every one of the
// 2^8 subsets of its eight operators, and each subset's rows must equal, bit
// for bit, both the unpushed run's and a monolithic machine's: where an
// operator runs decides its cost, never its answer. (Q9 loads seed 42: at
// seed 3 and this scale no part is green and Q9 has no rows to compare.)
func TestPushedQueriesMatchUnpushed(t *testing.T) {
	q9Ops := []string{OpSelection, OpProjection, OpAggregation, OpHashJoin,
		OpMergeJoin, OpLookup, OpExpression, OpGroup}
	load := func(cfg ddc.Config, seed int64, push ...string) (*Data, *profile.Exec) {
		m := ddc.MustMachine(cfg)
		p := m.NewProcess()
		d := Load(coldb.NewDB(p), Config{Scale: 0.1, Seed: seed})
		var rt *core.Runtime
		if push != nil {
			rt = core.NewRuntime(p, 1)
		}
		ex := profile.NewExec(sim.NewThread("q"), p, rt)
		ex.Push(push...)
		return d, ex
	}
	build := func(push bool) (*Data, *profile.Exec) {
		if push {
			return load(ddc.BaseDDC(96*mem.PageSize), 3, q9Ops...)
		}
		return load(ddc.BaseDDC(96*mem.PageSize), 3)
	}
	q9 := func(cfg ddc.Config, push ...string) []coldb.GroupRow {
		d, ex := load(cfg, 42, push...)
		return Q9(ex, d, GreenPart)
	}
	sameBits := func(a, b []coldb.GroupRow) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key != b[i].Key || a[i].Count != b[i].Count || math.Float64bits(a[i].Sum) != math.Float64bits(b[i].Sum) {
				return false
			}
		}
		return true
	}

	local, unpushed := q9(ddc.Linux()), q9(ddc.BaseDDC(96*mem.PageSize))
	if len(local) == 0 {
		t.Fatal("Q9 returned no rows: nothing to compare")
	}
	if !sameBits(local, unpushed) {
		t.Fatalf("Q9 on the base DDC differs from Linux:\n%+v\n%+v", unpushed, local)
	}
	for mask := range 1 << len(q9Ops) {
		push := []string{}
		for i, op := range q9Ops {
			if mask&(1<<i) != 0 {
				push = append(push, op)
			}
		}
		if got := q9(ddc.BaseDDC(96*mem.PageSize), push...); !sameBits(got, unpushed) {
			t.Fatalf("Q9 pushing %v differs from the unpushed run:\n%+v\n%+v", push, got, unpushed)
		}
	}

	// Q3
	dA, exA := build(false)
	dB, exB := build(true)
	ta, tb := Q3(exA, dA, 0, 1100), Q3(exB, dB, 0, 1100)
	for i := range ta {
		if ta[i].Key != tb[i].Key || !approxEq(ta[i].Sum, tb[i].Sum) {
			t.Fatalf("Q3 pushed row %d differs", i)
		}
	}

	// Q6, Q1, QFilter
	dA, exA = build(false)
	dB, exB = build(true)
	if x, y := Q6(exA, dA, 730), Q6(exB, dB, 730); !approxEq(x, y) {
		t.Fatalf("Q6 pushed differs: %v vs %v", x, y)
	}
	dA, exA = build(false)
	dB, exB = build(true)
	if x, y := QFilter(exA, dA, 1200), QFilter(exB, dB, 1200); !approxEq(x, y) {
		t.Fatalf("QFilter pushed differs: %v vs %v", x, y)
	}
	dA, exA = build(false)
	dB, exB = build(true)
	qa, qb := Q1(exA, dA, 2400), Q1(exB, dB, 2400)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("Q1 pushed row %d differs: %+v vs %+v", i, qa[i], qb[i])
		}
	}
}

func TestQueryEdgeCases(t *testing.T) {
	d, ex := loadLocal(t, 0.05)
	// Q_filter with a cutoff below every shipdate: empty selection.
	if got := QFilter(ex, d.Data, 0); got != 0 {
		t.Fatalf("QFilter(empty) = %v", got)
	}
	// Q_filter with a cutoff above every shipdate: all rows.
	var all float64
	for _, q := range d.Raw.LQuantity {
		all += q
	}
	d2, ex2 := loadLocal(t, 0.05)
	if got := QFilter(ex2, d2.Data, DateMax+1); !approxEq(got, all) {
		t.Fatalf("QFilter(all) = %v, want %v", got, all)
	}
	_ = d2
	// Q3 with a day that matches no orders: empty result.
	d3, ex3 := loadLocal(t, 0.05)
	top := Q3(ex3, d3.Data, 0, 0)
	if len(top) != 0 {
		t.Fatalf("Q3 with no qualifying orders returned %d rows", len(top))
	}
	// Q9 with a colour no part has (colours are 0..91).
	d4, ex4 := loadLocal(t, 0.05)
	if rows := Q9(ex4, d4.Data, 99); len(rows) != 0 {
		t.Fatalf("Q9 with unmatched colour returned %d groups", len(rows))
	}
}

package coldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"teleport/internal/ddc"
	"teleport/internal/sim"
)

func localDB() (*DB, *ddc.Env) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	return NewDB(p), p.NewEnv(sim.NewThread("t"))
}

func loadI64Col(db *DB, t *Table, name string, vals []int64) *Column {
	c := t.Col(name)
	c.LoadI64(db.P, vals)
	return c
}

func TestTableSchema(t *testing.T) {
	db, _ := localDB()
	tab := db.CreateTable("r", 10,
		ColumnSpec{"a", I64}, ColumnSpec{"b", F64}, ColumnSpec{"c", I32})
	if tab.N != 10 {
		t.Fatal("row count")
	}
	if got := tab.Columns(); len(got) != 3 || got[0] != "a" {
		t.Fatalf("Columns = %v", got)
	}
	if db.Table("r") != tab {
		t.Fatal("Table lookup")
	}
	if db.Bytes() != 10*8+10*8+10*4 {
		t.Fatalf("Bytes = %d", db.Bytes())
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestColumnTypedAccess(t *testing.T) {
	db, env := localDB()
	tab := db.CreateTable("r", 4, ColumnSpec{"i", I64}, ColumnSpec{"f", F64}, ColumnSpec{"d", I32})
	tab.Col("i").SetI64(env, 0, -5)
	tab.Col("f").SetF64(env, 1, 2.25)
	tab.Col("d").SetI64(env, 2, 12345)
	if tab.Col("i").I64At(env, 0) != -5 {
		t.Fatal("i64")
	}
	if tab.Col("f").F64At(env, 1) != 2.25 {
		t.Fatal("f64")
	}
	if tab.Col("d").I64At(env, 2) != 12345 || tab.Col("d").F64At(env, 2) != 12345 {
		t.Fatal("i32")
	}
}

func TestSelectMatchesNaiveFilter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(500) + 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(100))
		}
		db, env := localDB()
		tab := db.CreateTable("r", n, ColumnSpec{"v", I64})
		col := loadI64Col(db, tab, "v", vals)
		cut := int64(r.Intn(100))
		got := SelectI64(env, col, PredI64{Op: CmpLT, Lo: cut}, nil)
		var want []int
		for i, v := range vals {
			if v < cut {
				want = append(want, i)
			}
		}
		if got.N != len(want) {
			return false
		}
		for i, w := range want {
			if got.Get(env, i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectWithCandidateListComposes(t *testing.T) {
	db, env := localDB()
	n := 100
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := db.CreateTable("r", n, ColumnSpec{"v", I64})
	col := loadI64Col(db, tab, "v", vals)
	c1 := SelectI64(env, col, PredI64{Op: CmpGE, Lo: 20}, nil)
	c2 := SelectI64(env, col, PredI64{Op: CmpLT, Lo: 30}, c1)
	if c2.N != 10 {
		t.Fatalf("composed selection N = %d, want 10", c2.N)
	}
	if c2.Get(env, 0) != 20 || c2.Get(env, 9) != 29 {
		t.Fatal("composed selection rows wrong")
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		p    PredI64
		v    int64
		want bool
	}{
		{PredI64{Op: CmpLT, Lo: 5}, 4, true},
		{PredI64{Op: CmpLT, Lo: 5}, 5, false},
		{PredI64{Op: CmpLE, Lo: 5}, 5, true},
		{PredI64{Op: CmpGT, Lo: 5}, 6, true},
		{PredI64{Op: CmpGE, Lo: 5}, 5, true},
		{PredI64{Op: CmpEQ, Lo: 5}, 5, true},
		{PredI64{Op: CmpEQ, Lo: 5}, 4, false},
		{PredI64{Op: CmpBetween, Lo: 2, Hi: 4}, 3, true},
		{PredI64{Op: CmpBetween, Lo: 2, Hi: 4}, 5, false},
	}
	for i, c := range cases {
		if c.p.Eval(c.v) != c.want {
			t.Errorf("case %d: PredI64 %+v on %d", i, c.p, c.v)
		}
	}
	if !(PredF64{Op: CmpBetween, Lo: 0.05, Hi: 0.07}).Eval(0.06) {
		t.Error("PredF64 between")
	}
	if (PredF64{Op: CmpLT, Lo: 1.5}).Eval(2.0) {
		t.Error("PredF64 lt")
	}
	if !(PredF64{Op: CmpGE, Lo: 1.5}).Eval(1.5) || !(PredF64{Op: CmpGT, Lo: 1.0}).Eval(1.5) ||
		!(PredF64{Op: CmpLE, Lo: 1.5}).Eval(1.5) || !(PredF64{Op: CmpEQ, Lo: 1.5}).Eval(1.5) {
		t.Error("PredF64 ops")
	}
}

func TestProjectAndAggregate(t *testing.T) {
	db, env := localDB()
	n := 50
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := db.CreateTable("r", n, ColumnSpec{"v", I64})
	col := loadI64Col(db, tab, "v", vals)
	cand := SelectI64(env, col, PredI64{Op: CmpLT, Lo: 10}, nil)
	proj := Project(env, col, cand)
	if proj.N != 10 || proj.I64At(env, 3) != 3 {
		t.Fatalf("projection wrong: N=%d", proj.N)
	}
	if got := Aggregate(env, col, AggSum, cand); got != 45 {
		t.Fatalf("sum = %v", got)
	}
	if got := Aggregate(env, col, AggCount, cand); got != 10 {
		t.Fatalf("count = %v", got)
	}
	if got := Aggregate(env, col, AggMin, cand); got != 0 {
		t.Fatalf("min = %v", got)
	}
	if got := Aggregate(env, col, AggMax, cand); got != 9 {
		t.Fatalf("max = %v", got)
	}
}

func TestExpressions(t *testing.T) {
	db, env := localDB()
	tab := db.CreateTable("r", 3, ColumnSpec{"p", F64}, ColumnSpec{"d", F64})
	tab.Col("p").LoadF64(db.P, []float64{10, 20, 30})
	tab.Col("d").LoadF64(db.P, []float64{0.1, 0.2, 0.5})
	rev := ExprRevenue(env, tab.Col("p"), tab.Col("d"), nil)
	if rev.F64At(env, 0) != 9 || rev.F64At(env, 2) != 15 {
		t.Fatal("revenue expression wrong")
	}
	mul := ExprMulAddColumns(env, tab.Col("p"), tab.Col("d"), 2, nil)
	if mul.F64At(env, 1) != 8 {
		t.Fatalf("mul expression = %v", mul.F64At(env, 1))
	}
}

// TestHashJoinMatchesNestedLoop is the property test: hash join equals the
// naive O(n·m) join on random inputs.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb, np := r.Intn(80)+1, r.Intn(200)+1
		build := make([]int64, nb)
		for i := range build {
			build[i] = int64(r.Intn(40))
		}
		probe := make([]int64, np)
		for i := range probe {
			probe[i] = int64(r.Intn(60))
		}
		// Unique-ify build keys (the join is FK→PK style).
		seen := map[int64]bool{}
		for i := range build {
			for seen[build[i]] {
				build[i]++
			}
			seen[build[i]] = true
		}
		db, env := localDB()
		bt := db.CreateTable("b", nb, ColumnSpec{"k", I64})
		bk := loadI64Col(db, bt, "k", build)
		pt := db.CreateTable("p", np, ColumnSpec{"k", I64})
		pk := loadI64Col(db, pt, "k", probe)

		idx := BuildHashIndex(env, bk, nil)
		res := HashJoinProbe(env, idx, pk, nil)

		want := 0
		for i := 0; i < np; i++ {
			for j := 0; j < nb; j++ {
				if probe[i] == build[j] {
					want++
				}
			}
		}
		if res.Outer.N != want {
			return false
		}
		for i := 0; i < res.Outer.N; i++ {
			o, in := res.Outer.Get(env, i), res.Inner.Get(env, i)
			if probe[o] != build[in] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl, nr := r.Intn(100)+1, r.Intn(100)+1
		left := make([]int64, nl)
		right := make([]int64, nr)
		for i := range left {
			left[i] = int64(r.Intn(30))
		}
		for i := range right {
			right[i] = int64(r.Intn(30))
		}
		sortI64(left)
		sortI64(right)
		// Keep left unique so one-to-many emission is well-defined.
		left = uniqueI64(left)
		nl = len(left)

		db, env := localDB()
		lt := db.CreateTable("l", nl, ColumnSpec{"k", I64})
		lk := loadI64Col(db, lt, "k", left)
		rt := db.CreateTable("r", nr, ColumnSpec{"k", I64})
		rk := loadI64Col(db, rt, "k", right)
		res := MergeJoin(env, lk, rk)

		want := 0
		for _, lv := range left {
			for _, rv := range right {
				if lv == rv {
					want++
				}
			}
		}
		return res.Outer.N == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sortI64(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func uniqueI64(v []int64) []int64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func TestLookupJoin(t *testing.T) {
	db, env := localDB()
	dim := db.CreateTable("dim", 4, ColumnSpec{"v", I64})
	dv := loadI64Col(db, dim, "v", []int64{100, 200, 300, 400})
	fact := db.CreateTable("fact", 5, ColumnSpec{"fk", I64})
	fk := loadI64Col(db, fact, "fk", []int64{3, 0, 1, 1, 2})
	out := LookupJoin(env, dv, fk, nil)
	want := []int64{400, 100, 200, 200, 300}
	for i, w := range want {
		if out.I64At(env, i) != w {
			t.Fatalf("LookupJoin[%d] = %d, want %d", i, out.I64At(env, i), w)
		}
	}
}

func TestGroupBySumMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(400) + 1
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(20))
			vals[i] = int64(r.Intn(100))
		}
		db, env := localDB()
		tab := db.CreateTable("r", n, ColumnSpec{"k", I64}, ColumnSpec{"v", I64})
		kc := loadI64Col(db, tab, "k", keys)
		vc := loadI64Col(db, tab, "v", vals)
		g := GroupBySum(env, kc, vc, nil, 32)
		want := map[int64]float64{}
		wantN := map[int64]int64{}
		for i := range keys {
			want[keys[i]] += float64(vals[i])
			wantN[keys[i]]++
		}
		rows := g.Rows(env)
		if len(rows) != len(want) {
			return false
		}
		for _, row := range rows {
			if want[row.Key] != row.Sum || wantN[row.Key] != row.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	_, env := localDB()
	rows := []GroupRow{{1, 5, 1}, {2, 9, 1}, {3, 1, 1}, {4, 7, 1}}
	top := TopK(env, rows, 2)
	if len(top) != 2 || top[0].Key != 2 || top[1].Key != 4 {
		t.Fatalf("TopK = %+v", top)
	}
	if got := TopK(env, rows, 10); len(got) != 4 {
		t.Fatal("TopK with k>len must return all")
	}
}

func TestEmptyInputOperators(t *testing.T) {
	db, env := localDB()
	tab := db.CreateTable("r", 4, ColumnSpec{"k", I64}, ColumnSpec{"v", F64})
	tab.Col("k").LoadI64(db.P, []int64{1, 2, 3, 4})
	tab.Col("v").LoadF64(db.P, []float64{1, 2, 3, 4})
	// An always-false selection yields an empty candidate list...
	empty := SelectI64(env, tab.Col("k"), PredI64{Op: CmpLT, Lo: -100}, nil)
	if empty.N != 0 {
		t.Fatalf("empty selection N = %d", empty.N)
	}
	// ... which every downstream operator must tolerate.
	if p := Project(env, tab.Col("v"), empty); p.N != 0 {
		t.Fatal("projection over empty candidates")
	}
	if got := Aggregate(env, tab.Col("v"), AggSum, empty); got != 0 {
		t.Fatalf("empty aggregate = %v", got)
	}
	idx := BuildHashIndex(env, GatherI64(env, tab.Col("k"), empty), nil)
	res := HashJoinProbe(env, idx, tab.Col("k"), nil)
	if res.Outer.N != 0 {
		t.Fatal("probe into an empty index matched rows")
	}
	g := GroupBySum(env, tab.Col("k"), tab.Col("v"), empty, 4)
	if g.Groups != 0 || len(g.Rows(env)) != 0 {
		t.Fatal("group over empty candidates")
	}
	if rev := ExprRevenue(env, tab.Col("v"), tab.Col("v"), empty); rev.N != 0 {
		t.Fatal("expression over empty candidates")
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	db, env := localDB()
	a := db.CreateTable("a", 3, ColumnSpec{"k", I64})
	a.Col("k").LoadI64(db.P, []int64{1, 2, 3})
	b := db.CreateTable("b", 1, ColumnSpec{"k", I64})
	b.Col("k").LoadI64(db.P, []int64{9})
	if res := MergeJoin(env, a.Col("k"), b.Col("k")); res.Outer.N != 0 {
		t.Fatal("disjoint merge join matched")
	}
	zero := GatherI64(env, a.Col("k"), NewCandList(db.P, 1))
	if res := MergeJoin(env, zero, b.Col("k")); res.Outer.N != 0 {
		t.Fatal("empty-left merge join matched")
	}
}

// The column writer must put value i where element i is read from, across
// page boundaries and for every storage type, touch nothing beside its
// column, and refuse to run past the end.
func TestColumnWriter(t *testing.T) {
	db, env := localDB()
	const n = 3000 // several pages of each width
	tab := db.CreateTable("w", n,
		ColumnSpec{"i", I64}, ColumnSpec{"f", F64}, ColumnSpec{"d", I32})
	guard := NewColumn(db.P, "guard", I64, 8)
	wi, wf, wd := tab.Col("i").Writer(db.P), tab.Col("f").Writer(db.P), tab.Col("d").Writer(db.P)
	for r := 0; r < n; r++ { // interleaved, as a loader draws a row at a time
		wi.I64(int64(r) << 33)
		wf.F64(float64(r) / 4)
		wd.I64(int64(-r))
	}
	for r := 0; r < n; r++ {
		if got := tab.Col("i").I64At(env, r); got != int64(r)<<33 {
			t.Fatalf("i[%d] = %d", r, got)
		}
		if got := tab.Col("f").F64At(env, r); got != float64(r)/4 {
			t.Fatalf("f[%d] = %v", r, got)
		}
		if got := tab.Col("d").I64At(env, r); got != int64(-r) {
			t.Fatalf("d[%d] = %d", r, got)
		}
	}
	for r := 0; r < guard.N; r++ {
		if got := guard.I64At(env, r); got != 0 {
			t.Fatalf("the writers touched the next column: guard[%d] = %d", r, got)
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("writing past the end", func() { wd.I64(1) })
	mustPanic("a float into an integer column", func() {
		w := tab.Col("i").Writer(db.P)
		w.F64(1)
	})
}

// A result list is sized for what its operator promises and says so when an
// input breaks the promise: the address space is a bump allocator, so an
// entry past the end would land in the next allocation.
func TestMergeJoinOneToMany(t *testing.T) {
	db, env := localDB()
	const n = 3000
	l := db.CreateTable("l", 1, ColumnSpec{"k", I64})
	l.Col("k").LoadI64(db.P, []int64{7})
	right := make([]int64, n)
	for i := range right {
		right[i] = 7
	}
	r := db.CreateTable("r", n, ColumnSpec{"k", I64})
	r.Col("k").LoadI64(db.P, right)
	res := MergeJoin(env, l.Col("k"), r.Col("k"))
	if res.Outer.N != n || res.Inner.N != n {
		t.Fatalf("%d, %d pairs, want %d", res.Outer.N, res.Inner.N, n)
	}
	for i := 0; i < n; i++ {
		if o, in := res.Outer.Get(env, i), res.Inner.Get(env, i); o != 0 || in != i {
			t.Fatalf("pair %d = (%d, %d), want (0, %d)", i, o, in, i)
		}
	}
}

func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want one naming %q", what, msg, want)
		}
	}()
	f()
}

func TestOverflowsPanic(t *testing.T) {
	db, env := localDB()
	keys := make([]int64, 40)
	for i := range keys {
		keys[i] = int64(i / 20) // two keys, twenty rows each: 800 pairs
	}
	a := db.CreateTable("a", len(keys), ColumnSpec{"k", I64})
	a.Col("k").LoadI64(db.P, keys)
	mustPanic(t, "many-to-many merge join", `"join.outer" overflows its 40 entries`, func() {
		MergeJoin(env, a.Col("k"), a.Col("k"))
	})
	g := NewGroupAgg(db.P, 8) // 16 slots
	mustPanic(t, "seventeenth group", "group table of 16 slots is full", func() {
		for k := int64(0); k < 17; k++ {
			g.Add(env, k, 1)
		}
	})
}

package coldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// This file checks every operator against the row-at-a-time evaluator in
// reference_test.go: on two identical processes, one runs the operator and the
// other the reference, and afterwards they must agree on the result and on
// everything the run could have moved — the thread's clock, the Env's access
// counts, the process's paging counters and the order of its caches.

// oracleFixture is one process with a seeded table and candidate lists.
type oracleFixture struct {
	p                     *ddc.Process
	i64, f64, f64b, i32   *Column // random values
	sorted, uniq, fk, dim *Column // merge-join sides, a foreign key and its dimension
	cands                 map[string]*CandList
}

// candKinds are the candidate lists an operator is tried with, nil first.
var candKinds = []string{"none", "empty", "one", "sparse", "dense"}

func newOracleFixture(p *ddc.Process, n int, seed int64) *oracleFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := &oracleFixture{p: p, cands: map[string]*CandList{}}
	load := func(name string, t Type, n int, v func(i int) float64) *Column {
		c := NewColumn(p, name, t, n)
		w := c.Writer(p)
		for i := 0; i < n; i++ {
			if t == F64 {
				w.F64(v(i))
			} else {
				w.I64(int64(v(i)))
			}
		}
		return c
	}
	fx.i64 = load("i64", I64, n, func(int) float64 { return float64(rng.Intn(50)) })
	fx.f64 = load("f64", F64, n, func(int) float64 { return rng.Float64() * 100 })
	fx.f64b = load("f64b", F64, n, func(int) float64 { return rng.Float64() })
	fx.i32 = load("i32", I32, n, func(int) float64 { return float64(rng.Intn(2000)) })
	key := 0
	fx.sorted = load("sorted", I64, n, func(int) float64 { key += rng.Intn(3) / 2; return float64(key) })
	fx.uniq = load("uniq", I64, key+2, func(i int) float64 { return float64(i) })
	nDim := max(n/10, 3)
	fx.fk = load("fk", I32, n, func(int) float64 { return float64(rng.Intn(nDim)) })
	fx.dim = load("dim", F64, nDim, func(i int) float64 { return float64(i) * 1.5 })
	for _, kind := range candKinds[1:] {
		cl := NewCandList(p, n)
		for row := 0; row < n; row++ {
			keep := false
			switch kind {
			case "one":
				keep = row == n/2
			case "sparse":
				keep = rng.Intn(9) == 0
			case "dense":
				keep = rng.Intn(9) != 0
			}
			if keep {
				p.Space.WriteU32(cl.Base+mem.Addr(cl.N*4), uint32(row))
				cl.N++
			}
		}
		fx.cands[kind] = cl
	}
	return fx
}

// snapshot turns an operator's result into plain values, read from the ground
// truth without charging anything.
func snapshot(p *ddc.Process, v any) any {
	switch v := v.(type) {
	case *CandList:
		rows := make([]uint32, v.N)
		for i := range rows {
			rows[i] = p.Space.ReadU32(v.Base + mem.Addr(i*4))
		}
		return rows
	case *Column:
		buf := make([]byte, v.Bytes())
		p.Space.ReadAt(v.Base, buf)
		return fmt.Sprint(v.Type, v.N, buf)
	case JoinResult:
		return []any{snapshot(p, v.Outer), snapshot(p, v.Inner)}
	case []GroupRow:
		rows := append([]GroupRow(nil), v...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		return rows
	}
	return v
}

// oraclePlatform runs one operator on one kind of machine and reports what it
// left behind.
type oraclePlatform struct {
	name string
	cfg  func() ddc.Config
	push bool // run inside a pushdown, in memory place
	pool int  // the memory pool's DRAM in pages once the fixture is loaded (0 = unbounded)
}

func baseDDC24() ddc.Config { return ddc.BaseDDC(24 * mem.PageSize) }

var oraclePlatforms = []oraclePlatform{
	{"linux", ddc.Linux, false, 0},
	{"linux-ssd", func() ddc.Config { return ddc.LinuxSSD(24 * mem.PageSize) }, false, 0},
	{"base-ddc", baseDDC24, false, 0},
	{"pushdown", baseDDC24, true, 0},
	// A pool smaller than the fixture: it faults pages in from storage and
	// evicts them, and a pushed operator's quiet rows hit in it.
	{"base-ddc+pool", baseDDC24, false, 40},
	{"pushdown+pool", baseDDC24, true, 40},
}

// oracleState is everything two runs are compared on.
type oracleState struct {
	Result        any
	Now           sim.Time
	Reads, Writes int64
	Stats         ddc.ProcStats
	Core          core.RuntimeStats
	Cache, Pool   []string
}

func cacheOrder(c *ddc.PageCache) (order []string) {
	if c != nil {
		c.Range(func(p mem.PageID, writable, dirty bool) bool {
			order = append(order, fmt.Sprint(p, writable, dirty))
			return true
		})
	}
	return order
}

// run executes ops — several operators in sequence, so that each starts from
// the state the one before left — on a fresh fixture.
func (pl oraclePlatform) run(n int, seed int64, ops func(env *ddc.Env, fx *oracleFixture) []any) oracleState {
	p := ddc.MustMachine(pl.cfg()).NewProcess()
	fx := newOracleFixture(p, n, seed)
	if pl.pool > 0 {
		p.ResizePool(int64(pl.pool) * mem.PageSize)
	}
	th := sim.NewThread("q")
	var st oracleState
	body := func(env *ddc.Env) {
		for _, r := range ops(env, fx) {
			st.Result = append(st.Result.([]any), snapshot(p, r))
		}
		st.Reads, st.Writes = env.Accesses()
	}
	st.Result = []any{}
	if pl.push {
		// The compute pool has read f64: a pushed access to it takes the page
		// from the compute pool (Figure 9, lines 17–25), which leaves a bounded
		// pool's copy clean for the call's stores to dirty.
		Aggregate(p.NewEnv(th), fx.f64, AggSum, nil)
		rt := core.NewRuntime(p, 1)
		if _, err := rt.Pushdown(th, body, core.Options{}); err != nil {
			panic(err)
		}
		st.Core = rt.Stats()
	} else {
		body(p.NewEnv(th))
	}
	st.Now, st.Stats = th.Now(), p.Stats()
	st.Cache, st.Pool = cacheOrder(p.Cache), cacheOrder(p.PoolRes)
	return st
}

// operatorCase pairs an operator with its reference; both return the values
// to compare.
type operatorCase struct {
	name     string
	got, ref func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any
	noCand   bool // the operator takes no candidate list
}

func refMapF64(env *ddc.Env, name string, ops float64, a, b *Column, cand *CandList, f func(a, b float64) float64) *Column {
	n := cand.Len(a.N)
	out := NewColumn(env.P, name, F64, max(n, 1))
	out.N = n
	i := 0
	cand.ForEach(env, a.N, func(row int) {
		env.Compute(ops)
		x := a.F64At(env, row)
		out.SetF64(env, i, f(x, b.F64At(env, i))) // b is a temporary over cand: at the position
		i++
	})
	return out
}

func refMapI64(env *ddc.Env, name string, t Type, ops float64, a, b *Column, cand *CandList, f func(a, b int64) int64) *Column {
	n := cand.Len(a.N)
	out := NewColumn(env.P, name, t, max(n, 1))
	out.N = n
	i := 0
	cand.ForEach(env, a.N, func(row int) {
		env.Compute(ops)
		x, y := a.I64At(env, row), int64(0)
		if b != nil {
			y = b.I64At(env, row)
		}
		out.SetI64(env, i, f(x, y))
		i++
	})
	return out
}

// addInPlace adds b to col's candidate rows where they are, through a stream
// it loads from and stores to. No operator stores into a page it did not just
// allocate, so only this kernel stores, in a run of quiet rows, to a page a
// bounded pool holds clean: one the compute pool read before the call.
func addInPlace(env *ddc.Env, col, b *Column, cand *CandList) *Column {
	sc := newScan(env, cand, col.N, opsExpr)
	y, v := sc.read(b), sc.operand(col, ddc.StreamWrite)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			v.setF64(j, v.f64(j)+y.f64(j))
		}
	}
	return col
}

// refAddInPlace is addInPlace one access at a time; col's value is read from
// the ground truth, as the kernel reads it from the frame its store borrowed.
func refAddInPlace(env *ddc.Env, col, b *Column, cand *CandList) *Column {
	cand.ForEach(env, col.N, func(row int) {
		env.Compute(opsExpr)
		y := b.F64At(env, row)
		col.SetF64(env, row, math.Float64frombits(env.P.Space.ReadU64(col.Addr(row)))+y)
	})
	return col
}

var operatorCases = []operatorCase{
	{name: "SelectI64",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{
				SelectI64(env, fx.i64, PredI64{Op: CmpLT, Lo: 25}, cand),
				SelectI64(env, fx.i32, PredI64{Op: CmpBetween, Lo: 100, Hi: 110}, cand),
				SelectI64(env, fx.i32, PredI64{Op: CmpGE, Lo: 0}, cand),
			}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{
				refSelectI64(env, fx.i64, PredI64{Op: CmpLT, Lo: 25}, cand),
				refSelectI64(env, fx.i32, PredI64{Op: CmpBetween, Lo: 100, Hi: 110}, cand),
				refSelectI64(env, fx.i32, PredI64{Op: CmpGE, Lo: 0}, cand),
			}
		}},
	{name: "SelectF64",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			first := SelectF64(env, fx.f64, PredF64{Op: CmpLT, Lo: 60}, cand)
			return []any{first, SelectF64(env, fx.f64b, PredF64{Op: CmpGT, Lo: 0.5}, first)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			first := refSelectF64(env, fx.f64, PredF64{Op: CmpLT, Lo: 60}, cand)
			return []any{first, refSelectF64(env, fx.f64b, PredF64{Op: CmpGT, Lo: 0.5}, first)}
		}},
	{name: "Project",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{Project(env, fx.i64, cand), Project(env, fx.f64, cand), Project(env, fx.i32, cand)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{refProject(env, fx.i64, cand), refProject(env, fx.f64, cand), refProject(env, fx.i32, cand)}
		}},
	{name: "Aggregate",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{Aggregate(env, fx.f64, AggSum, cand), Aggregate(env, fx.i32, AggMax, cand),
				Aggregate(env, fx.i64, AggMin, cand), Aggregate(env, fx.f64b, AggCount, cand)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{refAggregate(env, fx.f64, AggSum, cand), refAggregate(env, fx.i32, AggMax, cand),
				refAggregate(env, fx.i64, AggMin, cand), refAggregate(env, fx.f64b, AggCount, cand)}
		}},
	{name: "Expr",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			rev := ExprRevenue(env, fx.f64, fx.f64b, cand)
			return []any{rev, ExprMulAddColumns(env, fx.f64, fx.i32, 0.5, cand),
				MapF64(env, "charge", 3, fx.f64b, rev, cand, func(tax, rev float64) float64 { return rev * (1 + tax) })}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			rev := refExprRevenue(env, fx.f64, fx.f64b, cand)
			return []any{rev, refExprMulAddColumns(env, fx.f64, fx.i32, 0.5, cand),
				refMapF64(env, "charge", 3, fx.f64b, rev, cand, func(tax, rev float64) float64 { return rev * (1 + tax) })}
		}},
	{name: "MapI64",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{
				MapI64(env, "key", I64, 2, fx.i64, fx.i32, cand, func(a, b int64) int64 { return a*100000 + b }),
				MapI64(env, "year", I32, 2, fx.i32, nil, cand, func(a, _ int64) int64 { return a / 365 }),
			}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{
				refMapI64(env, "key", I64, 2, fx.i64, fx.i32, cand, func(a, b int64) int64 { return a*100000 + b }),
				refMapI64(env, "year", I32, 2, fx.i32, nil, cand, func(a, _ int64) int64 { return a / 365 }),
			}
		}},
	{name: "HashJoin",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			idx := BuildHashIndex(env, fx.i64, cand)
			res := HashJoinProbe(env, idx, fx.fk, cand)
			return []any{res, GatherI64(env, fx.i32, res.Inner), GatherF64(env, fx.i32, res.Outer), GatherI64(env, fx.f64, res.Outer)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			idx := refBuildHashIndex(env, fx.i64, cand)
			res := refHashJoinProbe(env, idx, fx.fk, cand)
			return []any{res, refGatherI64(env, fx.i32, res.Inner), refGatherF64(env, fx.i32, res.Outer), refGatherI64(env, fx.f64, res.Outer)}
		}},
	{name: "MergeJoin", noCand: true,
		got: func(env *ddc.Env, fx *oracleFixture, _ *CandList) []any {
			return []any{MergeJoin(env, fx.sorted, fx.uniq)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, _ *CandList) []any {
			return []any{refMergeJoin(env, fx.sorted, fx.uniq)}
		}},
	{name: "LookupJoin",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{LookupJoin(env, fx.dim, fx.fk, cand), LookupJoin(env, fx.i32, fx.fk, cand)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{refLookupJoin(env, fx.dim, fx.fk, cand), refLookupJoin(env, fx.i32, fx.fk, cand)}
		}},
	{name: "GroupBySum",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{GroupBySum(env, fx.i64, fx.f64, cand, 64).Rows(env), GroupBySum(env, fx.fk, fx.i32, cand, 5000).Rows(env)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{refGroupBySum(env, fx.i64, fx.f64, cand, 64).refRows(env), refGroupBySum(env, fx.fk, fx.i32, cand, 5000).refRows(env)}
		}},
	{name: "aggregateRange", noCand: true,
		got: func(env *ddc.Env, fx *oracleFixture, _ *CandList) []any {
			n := fx.f64.N
			return []any{aggregateRange(env, fx.f64, n/3, n), aggregateRange(env, fx.i32, 0, n/2)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, _ *CandList) []any {
			n := fx.f64.N
			return []any{refAggregateRange(env, fx.f64, n/3, n), refAggregateRange(env, fx.i32, 0, n/2)}
		}},
	// Stores to f64, then reads more pages than a 40-page pool holds, which
	// evicts f64's: a page the call stored to is written back to storage.
	{name: "addInPlace",
		got: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{addInPlace(env, fx.f64, fx.f64b, cand), Aggregate(env, fx.i64, AggSum, nil), Aggregate(env, fx.sorted, AggSum, nil)}
		},
		ref: func(env *ddc.Env, fx *oracleFixture, cand *CandList) []any {
			return []any{refAddInPlace(env, fx.f64, fx.f64b, cand), refAggregate(env, fx.i64, AggSum, nil), refAggregate(env, fx.sorted, AggSum, nil)}
		}},
}

// TestOperatorsMatchReference runs every operator, with every kind of
// candidate list, at sizes that end on and off a DRAM line, on every platform.
func TestOperatorsMatchReference(t *testing.T) {
	for _, pl := range oraclePlatforms {
		for _, n := range []int{1, 7, 64, 1003, 9000} {
			for _, oc := range operatorCases {
				for _, kind := range candKinds {
					if !oc.noCand || kind == "none" {
						pl.check(t, n, int64(n), oc, kind)
					}
				}
			}
		}
	}
}

// FuzzOperatorsMatchReference is TestOperatorsMatchReference at fuzzed sizes,
// seeds and pool capacities: one operator over one kind of candidate list on
// one platform, whose bounded pool, if it has one, holds 2–64 pages.
func FuzzOperatorsMatchReference(f *testing.F) {
	f.Add(uint8(5), uint16(1003), int64(1), uint8(38), uint8(0), uint8(4))
	f.Add(uint8(4), uint16(4095), int64(7), uint8(0), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, plat uint8, rows uint16, seed int64, pool, op, cand uint8) {
		pl := oraclePlatforms[int(plat)%len(oraclePlatforms)]
		if pl.pool > 0 {
			pl.pool = 2 + int(pool)%63
		}
		oc := operatorCases[int(op)%len(operatorCases)]
		kind := candKinds[int(cand)%len(candKinds)]
		if oc.noCand {
			kind = "none"
		}
		pl.check(t, 1+int(rows)%4096, seed, oc, kind)
	})
}

// check runs operator case oc over the candidates of the given kind, twice in
// one process — the second run starts on warm streams and caches — and its
// reference the same way in another, and fails t where the two differ.
func (pl oraclePlatform) check(t *testing.T, n int, seed int64, oc operatorCase, kind string) {
	t.Helper()
	side := func(f func(*ddc.Env, *oracleFixture, *CandList) []any) oracleState {
		return pl.run(n, seed, func(env *ddc.Env, fx *oracleFixture) []any {
			return append(f(env, fx, fx.cands[kind]), f(env, fx, fx.cands[kind])...)
		})
	}
	if got, want := side(oc.got), side(oc.ref); !reflect.DeepEqual(got, want) {
		t.Errorf("%s (pool %d), %d rows, seed %d, %s over %s candidates:\n got %s\nwant %s",
			pl.name, pl.pool, n, seed, oc.name, kind, got.diff(want), want.diff(got))
	}
}

// diff prints the fields of st that differ from other's.
func (st oracleState) diff(other oracleState) string {
	a, b := reflect.ValueOf(st), reflect.ValueOf(other)
	out := ""
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			s := fmt.Sprintf("%+v", a.Field(i).Interface())
			if len(s) > 300 {
				s = s[:300] + "…"
			}
			out += fmt.Sprintf(" %s=%s", a.Type().Field(i).Name, s)
		}
	}
	return out
}

// TestWorkersInterleaveAsBefore runs two aggregation workers as concurrent
// pushdowns on a one-core memory pool (Figure 17's setup: each context's CPU
// cost is dilated while both run) under one scheduler. A run of rows charged
// at once must not have skipped a yield: the handoffs between the workers, the
// makespan and the partials are the row-at-a-time evaluator's.
func TestWorkersInterleaveAsBefore(t *testing.T) {
	type outcome struct {
		Partials [2]PartialAgg
		Makespan sim.Time
		Switches int64
		Stats    ddc.ProcStats
	}
	run := func(fold func(env *ddc.Env, col *Column, lo, hi int) PartialAgg) (out outcome) {
		cfg := ddc.BaseDDC(64 * mem.PageSize)
		cfg.HW.MemoryPoolCores = 1
		p := ddc.MustMachine(cfg).NewProcess()
		col := newOracleFixture(p, 40000, 1).f64
		rt := core.NewRuntime(p, 2)
		s := sim.NewScheduler()
		for w := 0; w < 2; w++ {
			s.Spawn(fmt.Sprint("worker-", w), 0, func(th *sim.Thread) {
				_, err := rt.Pushdown(th, func(env *ddc.Env) {
					out.Partials[w] = fold(env, col, w*col.N/2, (w+1)*col.N/2)
				}, core.Options{})
				if err != nil {
					t.Error(err)
				}
			})
		}
		out.Makespan, out.Switches, out.Stats = s.Run(), s.Switches(), p.Stats()
		return out
	}
	got, want := run(aggregateRange), run(refAggregateRange)
	if got != want {
		t.Fatalf("two workers:\n got %+v\nwant %+v", got, want)
	}
	if got.Switches < 10 {
		t.Fatalf("only %d handoffs: the workers did not interleave", got.Switches)
	}
}

// TestScanAllocatesNothing pins the scan's host cost in allocations at zero:
// its cursors and stream set live on the operator's stack, so an operator
// allocates what its outputs take — the descriptors and, page by page as they
// are first written, the frames — which is what the row-at-a-time evaluator
// allocates too, at every size.
func TestScanAllocatesNothing(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		for _, oc := range operatorCases {
			allocs := func(f func(*ddc.Env, *oracleFixture, *CandList) []any) float64 {
				p := ddc.MustMachine(ddc.Linux()).NewProcess()
				fx := newOracleFixture(p, n, 1)
				env := p.NewEnv(sim.NewThread("q"))
				return testing.AllocsPerRun(3, func() { f(env, fx, nil) })
			}
			if got, ref := allocs(oc.got), allocs(oc.ref); got > ref {
				t.Errorf("%s over %d rows: %.0f allocations, the reference makes %.0f", oc.name, n, got, ref)
			}
		}
	}
}

package coldb

import (
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/sim"
)

// The operator microbenchmarks: host nanoseconds per input row of each
// operator shape — a filter, a dense copy, a two-input expression, the merge
// and hash joins, a grouped sum — over 64 k resident rows, on a monolithic
// machine and on the base-DDC hit path (every page cached, so each access
// still pays the pager). Operators allocate their outputs in the address
// space and nothing frees them, so each measured call runs on a process of
// its own, built outside the timer.

const benchRows = 1 << 16

type benchTable struct {
	env                        *ddc.Env
	key, price, disc, fk, uniq *Column
	idx                        *HashIndex
}

func newBenchTable(cfg ddc.Config) *benchTable {
	p := ddc.MustMachine(cfg).NewProcess()
	bt := &benchTable{env: p.NewEnv(sim.NewThread("bench"))}
	db := NewDB(p)
	t := db.CreateTable("t", benchRows, ColumnSpec{"key", I64}, ColumnSpec{"price", F64},
		ColumnSpec{"disc", F64}, ColumnSpec{"fk", I64})
	bt.key, bt.price, bt.disc, bt.fk = t.Col("key"), t.Col("price"), t.Col("disc"), t.Col("fk")
	bt.uniq = db.CreateTable("u", benchRows/4, ColumnSpec{"key", I64}).Col("key")
	kw, pw, dw, fw, uw := bt.key.Writer(p), bt.price.Writer(p), bt.disc.Writer(p), bt.fk.Writer(p), bt.uniq.Writer(p)
	x := uint64(1)
	for i := 0; i < benchRows; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		kw.I64(int64(x>>40) % 1000)
		pw.F64(float64(i))
		dw.F64(float64(x>>50) / 1e4)
		fw.I64(int64(i / 4)) // sorted, four rows per key: the merge join's left side
		if i < benchRows/4 {
			uw.I64(int64(i))
		}
	}
	bt.idx = BuildHashIndex(bt.env, bt.uniq, nil)
	return bt
}

func benchOperator(b *testing.B, op func(bt *benchTable)) {
	for _, pl := range []struct {
		name string
		cfg  ddc.Config
	}{{"local", ddc.Linux()}, {"base-ddc", ddc.BaseDDC(1 << 30)}} {
		b.Run(pl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bt := newBenchTable(pl.cfg)
				op(bt) // fault everything in and size the caches
				b.StartTimer()
				op(bt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
		})
	}
}

func BenchmarkSelect(b *testing.B) {
	benchOperator(b, func(bt *benchTable) { SelectI64(bt.env, bt.key, PredI64{Op: CmpLT, Lo: 100}, nil) })
}

func BenchmarkProject(b *testing.B) {
	benchOperator(b, func(bt *benchTable) { Project(bt.env, bt.price, nil) })
}

func BenchmarkExprRevenue(b *testing.B) {
	benchOperator(b, func(bt *benchTable) { ExprRevenue(bt.env, bt.price, bt.disc, nil) })
}

func BenchmarkMergeJoin(b *testing.B) {
	benchOperator(b, func(bt *benchTable) { MergeJoin(bt.env, bt.fk, bt.uniq) })
}

func BenchmarkHashJoinProbe(b *testing.B) {
	benchOperator(b, func(bt *benchTable) { HashJoinProbe(bt.env, bt.idx, bt.fk, nil) })
}

func BenchmarkGroupBySum(b *testing.B) {
	benchOperator(b, func(bt *benchTable) { GroupBySum(bt.env, bt.key, bt.price, nil, 1024) })
}

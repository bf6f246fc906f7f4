package ddc

import (
	"encoding/binary"
	"testing"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

// BenchmarkCachedScan measures the host cost of a sequential scan over
// resident memory, one access stream. The fast-path page and the last
// stream slot serve all but the first word of each line, so this should
// stay at a few ns per access with zero allocations.
func BenchmarkCachedScan(b *testing.B) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	th := sim.NewThread("bench")
	env := p.NewEnv(th)
	const bytes = 1 << 20
	a := p.Space.Alloc(bytes, "buf")
	// Warm pass so every frame exists.
	for off := mem.Addr(0); off < bytes; off += 8 {
		env.ReadU64(a + off)
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for off := mem.Addr(0); off < bytes; off += 8 {
			sink ^= env.ReadU64(a + off)
		}
	}
	_ = sink
}

// BenchmarkCachedScanRows is the same scan as a row loop that charges no CPU
// per row, as bench.RunCluster's supersteps run it: most rows are absorbed.
func BenchmarkCachedScanRows(b *testing.B) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	th := sim.NewThread("bench")
	env := p.NewEnv(th)
	const bytes = 1 << 20
	a := p.Space.Alloc(bytes, "buf")
	scanRows(env, a, bytes/8)
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= scanRows(env, a, bytes/8)
	}
	_ = sink
}

// scanRows reads n words from a through a zero-cost row loop and returns
// their xor.
func scanRows(env *Env, a mem.Addr, n int) (x uint64) {
	rows := env.Rows(n, 0)
	col := rows.Stream(a, 8, 0)
	for rows.Next() {
		for w := col.Bytes(); len(w) > 0; w = w[8:] {
			x ^= binary.LittleEndian.Uint64(w)
		}
	}
	return x
}

// BenchmarkSelectRows is Select's access shape as a row loop: an 8-byte
// column read in every row at three operations a row, and the rows whose value
// passes appended to a 4-byte list, an explicit stream; about half pass. It
// runs on a monolithic machine and on the base-DDC hit path, with every page
// resident and writable. ns/row is per row of the column.
func BenchmarkSelectRows(b *testing.B) {
	const rows = 1 << 16
	for _, name := range []string{"linux", "base-ddc-hit"} {
		cfg := Linux()
		if name != "linux" {
			cfg = BaseDDC(1 << 30)
		}
		p := MustMachine(cfg).NewProcess()
		col := p.Space.AllocPages(rows*8, "col")
		list := p.Space.AllocPages(rows*4, "list")
		env := p.NewEnv(sim.NewThread("bench"))
		for r := 0; r < rows; r++ {
			env.WriteU64(col+mem.Addr(r)*8, uint64(r)*0x9E3779B97F4A7C15)
		}
		selectRows(env, col, list, rows) // fault the list in, writable
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				selectRows(env, col, list, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// selectRows appends to list the rows of an n-row column at col whose value
// has bit 32 set, through a row loop, and returns how many it appended.
func selectRows(env *Env, col, list mem.Addr, n int) (hits int) {
	rows := env.Rows(n, 3)
	in := rows.Stream(col, 8, 0)
	out := rows.Stream(list, 4, StreamWrite|StreamExplicit)
	for rows.Next() {
		for j := 0; j < rows.Len; j++ {
			if binary.LittleEndian.Uint64(in.Bytes()[j*8:])>>32&1 != 0 {
				binary.LittleEndian.PutUint32(rows.Access(out, j, hits), uint32(rows.I+j))
				hits++
			}
		}
	}
	return hits
}

// TestCachedScanNoAlloc pins the zero-copy fast path: steady-state reads
// through the Env allocate nothing on the host, one at a time or as a row
// loop.
func TestCachedScanNoAlloc(t *testing.T) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.Alloc(64*mem.PageSize, "buf")
	for off := mem.Addr(0); off < 64*mem.PageSize; off += 8 {
		env.ReadU64(a + off)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for off := mem.Addr(0); off < 64*mem.PageSize; off += 8 {
			env.ReadU64(a + off)
		}
	})
	if allocs > 0 {
		t.Fatalf("cached scan allocates %.1f objects per pass, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { scanRows(env, a, 64*mem.PageSize/8) }); allocs > 0 {
		t.Fatalf("cached scan as a row loop allocates %.1f objects per pass, want 0", allocs)
	}
}

// interleavedRows is one pass of the Project operator's access shape — read a
// u32 candidate, read the i64 column value, append it to an i64 output —
// three interleaved streams, so no two consecutive accesses share a page.
func interleavedRows(env *Env, cand, col, out mem.Addr, rows int) {
	for r := 0; r < rows; r++ {
		row := mem.Addr(env.ReadU32(cand + mem.Addr(r)*4))
		env.WriteI64(out+mem.Addr(r)*8, env.ReadI64(col+row*8))
	}
}

// interleavedRun is the same three streams through the run primitive, as a
// dense operator drives them: every row charges two operations first.
func interleavedRun(env *Env, cand, col, out mem.Addr, rows int) {
	r := env.Rows(rows, 2)
	r.Stream(cand, 4, 0)
	in, o := r.Stream(col, 8, 0), r.Stream(out, 8, StreamWrite)
	for r.Next() {
		copy(o.Bytes(), in.Bytes())
	}
}

// interleavedEnvs builds the three environments the interleaved-stream
// benchmark and its allocation test run on: a monolithic machine, the
// base-DDC hit path (every page resident and writable), and memory place.
// Each operand is followed by gap bytes.
func interleavedEnvs(rows int, gap int64) (names []string, envs []*Env, cand, col, out mem.Addr) {
	names = []string{"linux", "base-ddc-hit", "memory-place"}
	for _, name := range names {
		cfg := Linux()
		if name != "linux" {
			cfg = BaseDDC(1 << 30)
		}
		p := MustMachine(cfg).NewProcess()
		cand = p.Space.AllocPages(int64(rows)*4+gap, "cand")
		col = p.Space.AllocPages(int64(rows)*8+gap, "col")
		out = p.Space.AllocPages(int64(rows)*8+gap, "out")
		env := p.NewEnv(sim.NewThread("bench"))
		if name == "memory-place" {
			env = p.RecycleMemoryEnv(nil, sim.NewThread("bench"), nopPager{})
		}
		for r := 0; r < rows; r++ {
			env.WriteU32(cand+mem.Addr(r)*4, uint32(r))
		}
		interleavedRows(env, cand, col, out, rows) // fault everything in, writable
		envs = append(envs, env)
	}
	return names, envs, cand, col, out
}

// BenchmarkInterleavedStreams measures the host cost per access when an
// operator interleaves several streams, which is what coldb's operators do
// (BenchmarkCachedScan has one stream and cannot see it). Its col and out are
// exactly the testbed's on-chip cache span apart, so every line the row loop
// steps onto shares a slot with the other's; run-gap is the row loop with a
// page between the operands, whose lines share none.
func BenchmarkInterleavedStreams(b *testing.B) {
	const rows = 1 << 16
	names, envs, cand, col, out := interleavedEnvs(rows, 0)
	for i, env := range envs {
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				interleavedRows(env, cand, col, out, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*3), "ns/access")
		})
		b.Run(names[i]+"/run", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				interleavedRun(env, cand, col, out, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*3), "ns/access")
		})
	}
	_, envs, cand, col, out = interleavedEnvs(rows, mem.PageSize)
	for i, env := range envs {
		b.Run(names[i]+"/run-gap", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				interleavedRun(env, cand, col, out, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*3), "ns/access")
		})
	}
}

// TestInterleavedStreamsNoAlloc pins the interleaved access path at zero
// host allocations in steady state on all three environments.
func TestInterleavedStreamsNoAlloc(t *testing.T) {
	const rows = 1 << 12
	names, envs, cand, col, out := interleavedEnvs(rows, 0)
	for i, env := range envs {
		allocs := testing.AllocsPerRun(5, func() { interleavedRows(env, cand, col, out, rows) })
		if allocs > 0 {
			t.Errorf("%s: interleaved streams allocate %.1f objects per pass, want 0", names[i], allocs)
		}
	}
}

// BenchmarkAccessBudget prices one 8-byte read of a resident 1 MB region, in
// order and at random, at each level an Env access stacks on the last: the
// frame decode alone (Space.ReadU64), the DRAM line model of an unlimited
// Linux() Env, which has no pager, and an Env of a LinuxSSD or a BaseDDC
// process whose every page is resident in its cache, so that each access the
// one-page memo does not cover asks the pager for a hit — the monolithic
// swap cache's or the compute pool's. Every level pays the same indirect
// call. The memory level is a pushed function's Env on a BaseDDC process
// whose pager always hits, with PoolDilation at 1.5, so that every charge is
// dilated. ns/op is per access.
func BenchmarkAccessBudget(b *testing.B) {
	const pages = 256
	const words = pages * mem.PageSize / 8 // a power of two
	for _, level := range []string{"space", "linux", "linux-ssd", "base-ddc", "memory"} {
		cfg := Linux()
		switch level {
		case "linux-ssd":
			cfg = LinuxSSD(2 * pages * mem.PageSize)
		case "base-ddc", "memory":
			cfg = BaseDDC(2 * pages * mem.PageSize)
		}
		p := MustMachine(cfg).NewProcess()
		base := p.Space.AllocPages(pages*mem.PageSize, "buf")
		th := sim.NewThread("bench")
		env := p.NewEnv(th)
		if level == "memory" {
			p.PoolDilation = 1.5
			env = p.RecycleMemoryEnv(nil, th, nopPager{})
		}
		for i := 0; i < pages; i++ {
			env.WriteU64(base+mem.Addr(i)*mem.PageSize, uint64(i)) // fault every page in
		}
		read := env.ReadU64
		if level == "space" {
			read = p.Space.ReadU64
		}
		b.Run(level+"/seq", func(b *testing.B) {
			var sink uint64
			for n := 0; n < b.N; n++ {
				sink ^= read(base + mem.Addr(n%words)*8)
			}
			accessSink = sink
		})
		b.Run(level+"/random", func(b *testing.B) {
			var sink uint64
			x := uint64(1)
			for n := 0; n < b.N; n++ {
				x = x*6364136223846793005 + 1442695040888963407
				sink ^= read(base + mem.Addr(x>>33%words)*8)
			}
			accessSink = sink
		})
	}
}

// accessSink keeps BenchmarkAccessBudget's reads from being optimised away.
var accessSink uint64

// BenchmarkCacheInsertEvict measures one miss on a full cache: insert a
// page, take the victim. The index-linked table makes it allocation-free.
func BenchmarkCacheInsertEvict(b *testing.B) {
	const capPages, span = 1024, 1 << 16
	c := NewPageCache(capPages)
	for p := mem.PageID(0); p < span; p++ {
		c.Insert(p, false, false) // size the table and fill the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	var dirty int
	for i := 0; i < b.N; i++ {
		if v, ok := c.Insert(mem.PageID(i*7919%span), true, i&1 == 0); ok && v.Dirty {
			dirty++
		}
	}
	_ = dirty
}

// fragmentedCache is the pushdown workload's resident set: about 1 500
// resident pages out of about 2 100, in about 200 runs of mixed write
// permission separated by holes of up to six pages.
func fragmentedCache() *PageCache {
	c := NewPageCache(0)
	x := uint64(1)
	p := mem.PageID(0)
	for run := 0; run < 200; run++ {
		x = x*6364136223846793005 + 1442695040888963407
		n, writable, gap := 4+int(x>>33%8), x>>40&1 != 0, mem.PageID(x>>44%7)
		for i := 0; i < n; i++ {
			c.Insert(p, writable, writable)
			p++
		}
		p += gap
	}
	return c
}

// BenchmarkAppendRuns measures the compute side's resident list on the
// pushdown workload's shape, into a destination that has room.
func BenchmarkAppendRuns(b *testing.B) {
	c := fragmentedCache()
	dst := c.AppendRuns(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.AppendRuns(dst[:0])
	}
	b.ReportMetric(float64(c.Len()), "pages/op")
	b.ReportMetric(float64(len(dst)), "runs/op")
}

// TestAppendRunsNoAlloc pins the emitter at zero allocations into a
// destination that has room.
func TestAppendRunsNoAlloc(t *testing.T) {
	c := fragmentedCache()
	dst := c.AppendRuns(nil)
	if err := netmodel.CheckRuns(dst); err != nil || len(dst) < 150 {
		t.Fatalf("fixture ships %d runs (%v), want about 200 well-formed ones", len(dst), err)
	}
	if allocs := testing.AllocsPerRun(10, func() { dst = c.AppendRuns(dst[:0]) }); allocs != 0 {
		t.Fatalf("AppendRuns into a warm destination allocates %.1f objects, want 0", allocs)
	}
}

// randomReads reads n pseudo-random words of a region of the given size.
func randomReads(env *Env, base mem.Addr, pages, n int, x *uint64) {
	for i := 0; i < n; i++ {
		*x = *x*6364136223846793005 + 1442695040888963407
		env.ReadU64(base + mem.Addr(*x>>33%uint64(pages))*mem.PageSize)
	}
}

// TestFaultPathNoAlloc pins the fault → insert → evict path at zero host
// allocations once the tables are sized: a base-DDC thread missing in a
// full compute cache, the same with a bounded pool (every miss also evicts
// from the pool-residency set and reads the SSD), and a monolithic thread
// swapping against its page cache.
func TestFaultPathNoAlloc(t *testing.T) {
	const pages = 512
	for _, tc := range []struct {
		name string
		cfg  Config
		pool int64 // ResizePool bytes, 0 = unbounded
	}{
		{"base-ddc", BaseDDC(32 * mem.PageSize), 0},
		{"base-ddc-bounded-pool", BaseDDC(32 * mem.PageSize), 64 * mem.PageSize},
		{"linux-ssd", LinuxSSD(32 * mem.PageSize), 0},
	} {
		p := MustMachine(tc.cfg).NewProcess()
		base := p.Space.AllocPages(pages*mem.PageSize, "buf")
		if tc.pool > 0 {
			p.ResizePool(tc.pool)
		}
		env := p.NewEnv(sim.NewThread("t"))
		x := uint64(1)
		for i := 0; i < pages; i++ { // touch every frame, fill the caches
			env.WriteU64(base+mem.Addr(i)*mem.PageSize, uint64(i))
		}
		randomReads(env, base, pages, 2000, &x)
		before := p.Stats()
		allocs := testing.AllocsPerRun(5, func() { randomReads(env, base, pages, 2000, &x) })
		after := p.Stats()
		if after.CacheMisses-before.CacheMisses < 5000 {
			t.Fatalf("%s: only %d misses, the test is not exercising the fault path",
				tc.name, after.CacheMisses-before.CacheMisses)
		}
		if tc.pool > 0 && after.StorageEvicts == before.StorageEvicts {
			t.Fatalf("%s: the pool never evicted", tc.name)
		}
		if tc.name == "linux-ssd" && after.SSDFaults == before.SSDFaults {
			t.Fatalf("%s: no SSD faults", tc.name)
		}
		if allocs > 0 {
			t.Errorf("%s: %.1f allocations per 2000 random reads, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkGateQuorum is a pushed function's per-access write-quorum gate on
// a 4-shard R=3 W=2 pool under the partition-chaos schedules: every
// iteration gates the next page at a clock 200 ns later, so the clock crosses
// shard crashes, link partitions and split-brain windows as a long call
// would. The schedules grow with the clock, so compare builds at a fixed
// -benchtime count (make bench-gate).
func BenchmarkGateQuorum(b *testing.B) {
	cfg := BaseDDC(64 * mem.PageSize)
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
	m := MustMachine(cfg)
	m.AttachFault(fault.NewPlan(fault.PartitionChaos(), 1))
	var now sim.Time
	var lost int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 200 * sim.Nanosecond
		if m.GateQuorum(mem.PageID(i%64), now) > 0 {
			lost++
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
}

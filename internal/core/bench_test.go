package core

import (
	"runtime"
	"slices"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

// BenchmarkPushdownSetup measures the host cost of one pushdown call end to
// end — request, context setup, a one-page function, response — on a warm
// runtime. The pooled undo-journal buffers keep the per-call allocation
// count flat regardless of how many pages the function dirties.
func BenchmarkPushdownSetup(b *testing.B) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	a := p.Space.AllocPages(8*mem.PageSize, "v")
	th := sim.NewThread("bench")
	body := func(env *ddc.Env) {
		env.WriteI64(a, env.ReadI64(a)+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Pushdown(th, body, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// setupFixture is the repo benchmark's pushdown shape: an array of
// arrayPages pages written once from the compute side through a cache of
// resident pages, so every call ships a full, dirty, writable resident list.
type setupFixture struct {
	p     *ddc.Process
	rt    *Runtime
	th    *sim.Thread
	env   *ddc.Env // compute side
	array mem.Addr
	x     uint64

	// probe, when set, runs inside the pushed function after its accesses.
	probe func()
}

func newSetupFixture(arrayPages, resident int) *setupFixture {
	m := ddc.MustMachine(ddc.BaseDDC(int64(resident) * mem.PageSize))
	p := m.NewProcess()
	f := &setupFixture{p: p, rt: NewRuntime(p, 1), th: sim.NewThread("bench"), x: 1}
	f.array = p.Space.AllocPages(int64(arrayPages)*mem.PageSize, "array")
	f.env = p.NewEnv(f.th)
	for pg := 0; pg < arrayPages; pg++ {
		f.env.WriteI64(f.array+mem.Addr(pg)*mem.PageSize, int64(pg))
	}
	return f
}

// call pushes down a function touching four random words of the array, one
// per quarter. A writing call's stores are read back from the compute side
// afterwards, which refills the cache with the pages the call took away.
func (f *setupFixture) call(tb testing.TB, arrayPages int, write bool) Stats {
	quarter := uint64(arrayPages) * mem.PageSize / 8 / 4
	var addrs [4]mem.Addr
	for j := range addrs {
		f.x = f.x*6364136223846793005 + 1
		addrs[j] = f.array + mem.Addr(uint64(j)*quarter+(f.x>>11)%quarter)*8
	}
	st, err := f.rt.Pushdown(f.th, func(env *ddc.Env) {
		for _, a := range addrs {
			if write {
				env.WriteI64(a, 1)
			} else {
				env.ReadI64(a)
			}
		}
		if f.probe != nil {
			f.probe()
		}
	}, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if write {
		for _, a := range addrs {
			f.env.ReadI64(a)
		}
	}
	return st
}

// BenchmarkPushdownSetup1500 is BenchmarkPushdownSetup with the resident set
// the name promises: a 1 792-page array behind a 1 500-page dirty cache, so
// the resident list, its encoding and the temporary page table's
// invalidation are all in the measurement. runs/op is the mean length of
// the shipped list: the write-once warm-up leaves hundreds of runs, /rw's
// stores keep them, and /ro's reads downgrade the compute copies until a
// long run ships only a few. /ro's ns/op and runs/op therefore depend on
// b.N: compare two builds at the same -benchtime Nx.
func BenchmarkPushdownSetup1500(b *testing.B) {
	for _, write := range []bool{false, true} {
		name := "ro"
		if write {
			name = "rw"
		}
		b.Run(name, func(b *testing.B) {
			f := newSetupFixture(1792, 1500)
			f.call(b, 1792, write)
			b.ReportAllocs()
			b.ResetTimer()
			runs := 0
			for i := 0; i < b.N; i++ {
				runs += f.call(b, 1792, write).RLERuns
			}
			b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
		})
	}
}

// TestPushdownSetupAllocsFlat gates the set-up path's allocations: a warm
// call allocates the same one object at 64 and at 1 500 resident pages, and
// only a few KB at 1 500 — nothing per resident page, and no message: the
// request and response are sized, not built.
func TestPushdownSetupAllocsFlat(t *testing.T) {
	measure := func(arrayPages, resident int) (allocs, bytes float64) {
		f := newSetupFixture(arrayPages, resident)
		f.call(t, arrayPages, false)
		f.call(t, arrayPages, false)
		if got := f.p.Cache.Len(); got != resident {
			t.Fatalf("fixture has %d resident pages, want %d", got, resident)
		}
		allocs = testing.AllocsPerRun(50, func() { f.call(t, arrayPages, false) })
		const rounds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			f.call(t, arrayPages, false)
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, _ := measure(80, 64)
	large, largeBytes := measure(1792, 1500)
	if small != large || large > 1 {
		t.Errorf("warm call allocates %.0f objects at 64 resident pages and %.0f at 1500; want equal and at most 1", small, large)
	}
	if largeBytes >= 4<<10 {
		t.Errorf("warm call at 1500 resident pages allocates %.0f B; want under 4 KB", largeBytes)
	}
}

// TestPushdownSetupMaterialisesOnlyTouchedPages pins the set-up's structure
// rather than its timing: a warm four-word call on the benchmark fixture
// applies all 1 500 invalidations, completion charges the override count
// the eager table would hold, and the table materialises only the pages the
// call or a compute-side hook touched.
func TestPushdownSetupMaterialisesOnlyTouchedPages(t *testing.T) {
	for _, write := range []bool{false, true} {
		f := newSetupFixture(1792, 1500)
		f.call(t, 1792, write)
		shipped := f.p.Cache.AppendRuns(nil)
		hooksBefore := f.rt.agg.ComputeFaults + f.rt.agg.Upgrades
		var touched []mem.PageID
		var overrides int
		f.probe = func() {
			// Nothing else runs between here and postSync's charge.
			touched = slices.Clone(f.rt.temp.touched)
			overrides = f.rt.temp.len()
		}
		st := f.call(t, 1792, write)
		hooks := int(f.rt.agg.ComputeFaults + f.rt.agg.Upgrades - hooksBefore)

		if st.ResidentPages != 1500 {
			t.Errorf("write=%v: ResidentPages = %d, want 1500", write, st.ResidentPages)
		}
		var eager eagerTempTable
		eager.reset()
		eager.invalidateRuns(shipped)
		for _, pg := range touched {
			eager.entry(pg)
		}
		if overrides != eager.len() {
			t.Errorf("write=%v: completion charges %d overrides, the eager table holds %d", write, overrides, eager.len())
		}
		if len(touched) > 4+hooks {
			t.Errorf("write=%v: the table materialised %d pages for a four-word call and %d hooks", write, len(touched), hooks)
		}
	}
}

// TestRequestBytesIsMarshalledLength pins the request size a call sends to
// the length of the message it would build from the resident list it ships:
// on a run-friendly list, where RLE wins, and on the benchmark fixture after
// 40 writing calls (about 250 runs), where the bitmap does. Fn and Arg are
// fixed-width, so their values do not matter.
func TestRequestBytesIsMarshalledLength(t *testing.T) {
	for _, tc := range []struct {
		arrayPages, resident, warm int
		bitmap                     bool
	}{
		{2048, 2048, 0, false},
		{1792, 1500, 40, true},
	} {
		f := newSetupFixture(tc.arrayPages, tc.resident)
		for i := 0; i < tc.warm; i++ {
			f.call(t, tc.arrayPages, true)
		}
		for i := 0; i < 3; i++ {
			runs := f.p.Cache.AppendRuns(nil)
			req := netmodel.PushdownRequest{Resident: runs}
			wire, err := req.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if bitmap := len(netmodel.MarshalResident(runs)) < netmodel.RunsWireSize(runs); bitmap != tc.bitmap {
				t.Fatalf("%d runs over %d pages: bitmap encoding = %v, want %v", len(runs), tc.resident, bitmap, tc.bitmap)
			}
			if st := f.call(t, tc.arrayPages, true); st.RequestBytes != len(wire) {
				t.Errorf("%d runs: call sent %d request bytes, the message is %d", len(runs), st.RequestBytes, len(wire))
			}
		}
	}
}

// captureDeadline makes a call that can roll back, so it journals what it
// dirties: a deadline far past anything the call takes arms it without ever
// firing.
const captureDeadline = sim.Second

// BenchmarkJournalCapture measures pre-image capture across pushdown calls
// that each dirty many pages — the crash-consistency hot path the buffer
// pool exists for. The calls carry a deadline: a call that cannot abort
// keeps no pre-images.
func BenchmarkJournalCapture(b *testing.B) {
	m := ddc.MustMachine(ddc.BaseDDC(256 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	rt.Policy.Deadline = captureDeadline
	const pages = 64
	a := p.Space.AllocPages(pages*mem.PageSize, "v")
	th := sim.NewThread("bench")
	body := func(env *ddc.Env) {
		for pg := 0; pg < pages; pg++ {
			addr := a + mem.Addr(pg)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Pushdown(th, body, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJournalCapturePooled pins the recycling of pre-images through the
// space's arena: once warm, capturing a page's pre-image must not allocate a
// fresh page-sized buffer. The assertion is on allocated bytes
// (runtime.MemStats.TotalAlloc is a monotonic allocation counter, immune to
// GC timing): without recycling each captured page costs ≥ mem.PageSize; with
// it, only the journal's order bookkeeping remains. The calls carry a
// deadline, as in BenchmarkJournalCapture, so they capture at all.
func TestJournalCapturePooled(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(256 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 1)
	rt.Policy.Deadline = captureDeadline
	const pages = 64
	a := p.Space.AllocPages(pages*mem.PageSize, "v")
	th := sim.NewThread("t")
	body := func(env *ddc.Env) {
		for pg := 0; pg < pages; pg++ {
			addr := a + mem.Addr(pg)*mem.PageSize
			env.WriteI64(addr, env.ReadI64(addr)+1)
		}
	}
	call := func() {
		if _, err := rt.Pushdown(th, body, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the arena (the first call allocates the pages that then recycle).
	call()
	call()

	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*pages)
	if perPage >= mem.PageSize/2 {
		t.Fatalf("journal capture allocates %.0f B per captured page; pre-images are not recycled (unrecycled cost ≥ %d B)",
			perPage, mem.PageSize)
	}
}

// A call with no crash point, no deadline and no write quorum cannot abort, so
// it copies no pre-images: the scratch journal's slot index, which every
// capture extends and nothing shrinks, stays empty. The same call under a
// deadline captures each of the 64 pages it dirties, in order.
func TestUnarmedCallKeepsNoPreimages(t *testing.T) {
	const pages = 64
	for _, tc := range []struct {
		deadline sim.Time
		captures int
	}{{0, 0}, {captureDeadline, pages}} {
		p, rt := testProc(256)
		rt.Policy.Deadline = tc.deadline
		a := p.Space.AllocPages(pages*mem.PageSize, "v")
		body := func(env *ddc.Env) {
			for pg := 0; pg < pages; pg++ {
				addr := a + mem.Addr(pg)*mem.PageSize
				env.WriteI64(addr, env.ReadI64(addr)+1)
			}
		}
		if _, err := rt.Pushdown(sim.NewThread("t"), body, Options{}); err != nil {
			t.Fatal(err)
		}
		slot := rt.scratch[0].pager.journal.slot
		if tc.captures == 0 {
			if len(slot) != 0 {
				t.Fatalf("Deadline %v: journal slot index spans %d pages, want none captured", tc.deadline, len(slot))
			}
			continue
		}
		for i := 0; i < tc.captures; i++ {
			if pg := int(mem.PageOf(a)) + i; pg >= len(slot) || slot[pg] != uint32(i) {
				t.Fatalf("Deadline %v: page %d of %d was not the call's capture %d", tc.deadline, i, pages, i)
			}
		}
	}
}

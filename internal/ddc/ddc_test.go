package ddc

import (
	"reflect"
	"testing"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

func TestConfigPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{Linux(), LinuxSSD(1 << 20), BaseDDC(1 << 20)} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{HW: Linux().HW, Disaggregated: true},                    // no cache bound
		{HW: Linux().HW, Disaggregated: true, CacheBytes: -4096}, // negative cache bound
		{HW: Linux().HW, MemoryPoolBytes: 4096},                  // pool knob on monolithic
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLinuxUnlimitedIsCheapDRAM(t *testing.T) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.Alloc(1<<20, "buf")
	// Sequential scan: mostly streaming line fills.
	for i := mem.Addr(0); i < 1<<20; i += 8 {
		env.ReadU64(a + i)
	}
	perByte := float64(th.Now()) / float64(1<<20)
	if perByte > 0.5 { // ≥2 GB/s
		t.Fatalf("local sequential scan too slow: %.3f ns/B", perByte)
	}
	if m.Fabric.Total().Msgs != 0 {
		t.Fatal("local execution must not touch the fabric")
	}
}

func TestDDCMissFaultsOverFabric(t *testing.T) {
	m := MustMachine(BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(4*mem.PageSize, "buf")
	env.ReadU64(a)
	st := p.Stats()
	if st.RemoteFaults != 1 {
		t.Fatalf("RemoteFaults = %d", st.RemoteFaults)
	}
	if m.Fabric.Stats(netmodel.ClassPageFault).Msgs != 2 {
		t.Fatalf("fault msgs = %d", m.Fabric.Stats(netmodel.ClassPageFault).Msgs)
	}
	before := th.Now()
	env.ReadU64(a + 256) // same page, different line: hit, no new fault
	if p.Stats().RemoteFaults != 1 {
		t.Fatal("hit caused a fault")
	}
	hitCost := th.Now() - before
	if hitCost <= 0 || hitCost > sim.Microsecond {
		t.Fatalf("hit cost = %v, want a DRAM access", hitCost)
	}
}

func TestDDCRandomAccessSlowerThanLocal(t *testing.T) {
	// The premise of Figure 3: random access over a working set much larger
	// than the compute cache is an order of magnitude slower in a DDC.
	run := func(cfg Config) sim.Time {
		m := MustMachine(cfg)
		p := m.NewProcess()
		th := sim.NewThread("t")
		env := p.NewEnv(th)
		const size = 4 << 20
		a := p.Space.AllocPages(size, "buf")
		x := uint64(12345)
		for i := 0; i < 20000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			off := mem.Addr(x % (size / 8) * 8)
			env.ReadU64(a + off)
		}
		return th.Now()
	}
	local := run(Linux())
	d := run(BaseDDC(64 * mem.PageSize)) // cache is ~6% of the working set
	slowdown := float64(d) / float64(local)
	if slowdown < 8 {
		t.Fatalf("DDC slowdown = %.1f×, want ≳8× for random access", slowdown)
	}
}

func TestDDCSequentialPrefetchHelps(t *testing.T) {
	run := func(depth int) sim.Time {
		cfg := BaseDDC(64 * mem.PageSize)
		cfg.PrefetchDepth = depth
		m := MustMachine(cfg)
		p := m.NewProcess()
		th := sim.NewThread("t")
		env := p.NewEnv(th)
		const size = 2 << 20
		a := p.Space.AllocPages(size, "buf")
		for i := mem.Addr(0); i < size; i += 8 {
			env.ReadU64(a + i)
		}
		return th.Now()
	}
	without, with := run(0), run(4)
	if with >= without {
		t.Fatalf("prefetch did not help: %v vs %v", with, without)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	m := MustMachine(BaseDDC(2 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(8*mem.PageSize, "buf")
	// Dirty two pages, then touch more pages to force eviction.
	env.WriteU64(a, 1)
	env.WriteU64(a+mem.PageSize, 2)
	env.ReadU64(a + 2*mem.PageSize)
	env.ReadU64(a + 3*mem.PageSize)
	if p.Stats().Writebacks == 0 {
		t.Fatal("dirty eviction produced no write-back")
	}
	if m.Fabric.Stats(netmodel.ClassWriteback).Msgs == 0 {
		t.Fatal("no write-back messages on the fabric")
	}
	// Data must survive eviction (ground truth lives in the Space).
	if got := env.ReadU64(a); got != 1 {
		t.Fatalf("read-after-evict = %d", got)
	}
}

func TestLinuxSSDSpill(t *testing.T) {
	m := MustMachine(LinuxSSD(4 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(16*mem.PageSize, "buf")
	for pg := 0; pg < 16; pg++ {
		env.WriteU64(a+mem.Addr(pg)*mem.PageSize, uint64(pg))
	}
	// Re-read the first page: it was evicted to SSD.
	if got := env.ReadU64(a); got != 0 {
		t.Fatalf("value = %d, want 0", got)
	}
	st := p.Stats()
	if st.SSDFaults < 16 {
		t.Fatalf("SSDFaults = %d", st.SSDFaults)
	}
	if m.SSD.Stats().Writes == 0 {
		t.Fatal("dirty spill must write to SSD")
	}
	if m.Fabric.Total().Msgs != 0 {
		t.Fatal("monolithic machine must not use the fabric")
	}
}

func TestMemoryPoolSpillsToStorage(t *testing.T) {
	cfg := BaseDDC(2 * mem.PageSize)
	cfg.MemoryPoolBytes = 4 * mem.PageSize
	m := MustMachine(cfg)
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(16*mem.PageSize, "buf")
	for pg := 0; pg < 16; pg++ {
		env.WriteU64(a+mem.Addr(pg)*mem.PageSize, uint64(pg))
	}
	// Going back to page 0 must trigger the recursive fault to storage.
	before := p.Stats().StorageInFault
	env.ReadU64(a)
	if p.Stats().StorageInFault <= before {
		t.Fatal("expected a storage-pool fault")
	}
	if m.Fabric.Stats(netmodel.ClassStorage).Msgs == 0 {
		t.Fatal("no storage-pool traffic recorded")
	}
	if got := env.ReadU64(a); got != 0 {
		t.Fatalf("value = %d, want 0", got)
	}
}

func TestUpgradeOutsidePushdownIsLocal(t *testing.T) {
	m := MustMachine(BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(mem.PageSize, "buf")
	env.ReadU64(a) // faults in read-only
	msgs := m.Fabric.Total().Msgs
	env.WriteU64(a, 9) // upgrade: no pushdown active → no fabric traffic
	if m.Fabric.Total().Msgs != msgs {
		t.Fatal("upgrade without pushdown used the fabric")
	}
	if p.Stats().Upgrades != 1 {
		t.Fatalf("Upgrades = %d", p.Stats().Upgrades)
	}
}

func TestEnvComputeChargesClock(t *testing.T) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	env.Compute(2100) // 2100 ops at 2.1 GHz = 1000 ns
	if th.Now() != 1000 {
		t.Fatalf("Compute charged %v", th.Now())
	}
	p.PoolDilation = 2 // stretches the memory place only
	env.Compute(2100)
	if th.Now() != 2000 {
		t.Fatalf("compute-place Compute charged total %v under PoolDilation", th.Now())
	}
	p.RecycleMemoryEnv(nil, th, nopPager{}).Compute(2100)
	if th.Now() != 4000 {
		t.Fatalf("dilated memory-place Compute charged total %v", th.Now())
	}
}

func TestEnvTypedAccessorsRoundTrip(t *testing.T) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	env := p.NewEnv(sim.NewThread("t"))
	a := p.Space.Alloc(128, "vals")
	env.WriteI64(a, -42)
	env.WriteF64(a+8, 2.5)
	env.WriteU32(a+16, 7)
	env.WriteU32(a+20, uint32(0xFFFFFFF9)) // -7
	env.WriteU8(a+24, 0xFE)
	if env.ReadI64(a) != -42 || env.ReadF64(a+8) != 2.5 || env.ReadU32(a+16) != 7 ||
		env.ReadI32(a+20) != -7 || env.ReadU8(a+24) != 0xFE {
		t.Fatal("typed accessor round trip failed")
	}
	buf := []byte{1, 2, 3, 4, 5}
	env.WriteBytes(a+32, buf)
	out := make([]byte, 5)
	env.ReadBytes(a+32, out)
	for i := range buf {
		if buf[i] != out[i] {
			t.Fatal("bytes round trip failed")
		}
	}
	r, w := env.Accesses()
	if r == 0 || w == 0 {
		t.Fatal("access counters not incremented")
	}
}

func TestSequentialCheaperThanRandomDRAM(t *testing.T) {
	m := MustMachine(Linux())
	p := m.NewProcess()
	const n = 1 << 18
	a := p.Space.AllocPages(n, "buf")

	seqT := sim.NewThread("seq")
	env := p.NewEnv(seqT)
	for i := mem.Addr(0); i < n; i += 8 {
		env.ReadU64(a + i)
	}

	randT := sim.NewThread("rand")
	env2 := p.NewEnv(randT)
	x := uint64(99)
	for i := 0; i < n/8; i++ {
		x = x*6364136223846793005 + 1
		env2.ReadU64(a + mem.Addr(x%(n/8))*8)
	}
	if randT.Now() < 5*seqT.Now() {
		t.Fatalf("random (%v) should be ≫ sequential (%v)", randT.Now(), seqT.Now())
	}
}

func TestResizeCacheShrinksAndGrows(t *testing.T) {
	m := MustMachine(BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(8*mem.PageSize, "buf")
	for pg := 0; pg < 8; pg++ {
		env.ReadU64(a + mem.Addr(pg)*mem.PageSize)
	}
	if p.Cache.Len() != 8 {
		t.Fatalf("Len = %d", p.Cache.Len())
	}
	p.ResizeCache(2 * mem.PageSize)
	if p.Cache.Len() != 2 || p.Cache.capacity != 2 {
		t.Fatalf("after shrink: Len=%d Cap=%d", p.Cache.Len(), p.Cache.capacity)
	}
	if m.Cfg.CacheBytes != 2*mem.PageSize {
		t.Fatalf("config not updated: %d", m.Cfg.CacheBytes)
	}
	p.ResizeCache(16 * mem.PageSize)
	if p.Cache.capacity != 16 {
		t.Fatal("grow failed")
	}
	// Resize on an unlimited-memory machine is a no-op.
	lp := MustMachine(Linux()).NewProcess()
	lp.ResizeCache(4096)
	if lp.Cache != nil {
		t.Fatal("monolithic unlimited machine must stay cache-less")
	}
	// A monolithic machine with a cap rebounds its DRAM the same way.
	sp := MustMachine(LinuxSSD(8 * mem.PageSize)).NewProcess()
	sp.ResizeCache(2 * mem.PageSize)
	if sp.Cache.capacity != 2 || sp.M.Cfg.CacheBytes != 2*mem.PageSize {
		t.Fatal("monolithic cache not rebounded")
	}
}

func TestResizePoolCreatesAndRebounds(t *testing.T) {
	m := MustMachine(BaseDDC(4 * mem.PageSize))
	p := m.NewProcess()
	if p.PoolRes != nil {
		t.Fatal("unbounded pool should have nil residency")
	}
	p.ResizePool(8 * mem.PageSize)
	if p.PoolRes == nil || p.PoolRes.capacity != 8 {
		t.Fatal("ResizePool did not bound the pool")
	}
	p.ResizePool(2 * mem.PageSize)
	if p.PoolRes.capacity != 2 {
		t.Fatal("ResizePool did not rebound")
	}
	// Monolithic machines have no pool.
	lp := MustMachine(Linux()).NewProcess()
	lp.ResizePool(4096)
	if lp.PoolRes != nil {
		t.Fatal("monolithic machine must not grow a pool")
	}
}

func TestWritebackPageClearsDirty(t *testing.T) {
	m := MustMachine(BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.NewEnv(th)
	a := p.Space.AllocPages(mem.PageSize, "buf")
	env.WriteU64(a, 7)
	pg := mem.PageOf(a)
	if _, dirty, _ := p.Cache.Lookup(pg); !dirty {
		t.Fatal("page should be dirty")
	}
	p.WritebackPage(th, pg)
	if _, dirty, _ := p.Cache.Lookup(pg); dirty {
		t.Fatal("write-back should clear the dirty bit")
	}
	if p.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d", p.Stats().Writebacks)
	}
}

func TestMemoryEnv(t *testing.T) {
	m := MustMachine(BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("t")
	env := p.RecycleMemoryEnv(nil, th, nopPager{})
	if env.clock != m.Cfg.HW.MemoryClockGHz || env.dil != &p.PoolDilation {
		t.Fatalf("memory env misconfigured: %+v", env)
	}
	a := p.Space.Alloc(8, "x")
	env.WriteU64(a, 5)
	if env.ReadU64(a) != 5 {
		t.Fatal("memory env access")
	}
	env.fpValid = false // forces a pager call
	env.ReadU64(a)
}

// A recycled memory Env must be indistinguishable from a new one: after the
// same accesses both hold the same state, field for field, and charged the
// same time — whatever the recycled one did in its previous life.
func TestRecycleMemoryEnvEqualsNew(t *testing.T) {
	m := MustMachine(BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	a := p.Space.AllocPages(16*mem.PageSize, "v")
	access := func(env *Env) {
		for i := 0; i < 16*mem.PageSize/8; i += 24 {
			env.ReadU64(a + mem.Addr(i)*8)
		}
		env.WriteU64(a, 1)
		env.WriteU64(a+8, 2) // ends on the last slot's line
	}

	used := p.RecycleMemoryEnv(nil, sim.NewThread("previous"), nopPager{})
	access(used)
	used.ReadBytes(a+mem.PageSize-4, make([]byte, 8)) // multi-page: fast path anchored on the second
	if !used.l2Over {
		t.Fatal("the long previous life fit the slot list; the overflow clear is untested")
	}

	// The previous life ran in another process, so every stream slot the
	// recycled Env inherits memoises a frame of the wrong address space.
	q := m.NewProcess()
	q.Space.AllocPages(16*mem.PageSize, "v")
	other := q.RecycleMemoryEnv(nil, sim.NewThread("previous"), nopPager{})
	access(other)

	thR, thN := sim.NewThread("t"), sim.NewThread("t")
	recycled := p.RecycleMemoryEnv(used, thR, nopPager{})
	fresh := p.RecycleMemoryEnv(nil, thN, nopPager{})
	if recycled != used {
		t.Fatal("RecycleMemoryEnv must rebuild the Env it was given")
	}
	for _, e := range []*Env{recycled, p.RecycleMemoryEnv(other, sim.NewThread("t"), nopPager{})} {
		if e.frames != fresh.frames || e.streams != fresh.streams || e.nStream != 0 || e.last != 0 {
			t.Fatalf("recycled env keeps stream slots of its previous life: %v %v", e.streams, e.frames)
		}
	}
	other.WriteU64(a+16, 99) // the line its last slot held, in q
	if p.Space.ReadU64(a+16) != 99 || q.Space.ReadU64(a+16) != 0 {
		t.Fatal("an env recycled across processes wrote through a stale frame")
	}
	access(recycled)
	access(fresh)
	if thR.Now() != thN.Now() {
		t.Fatalf("recycled env charged %v, new env %v", thR.Now(), thN.Now())
	}
	recycled.T, fresh.T = nil, nil
	recycled.next, fresh.next = nil, nil // where each stands in the process's list
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("recycled env differs from a new one:\n%+v\n%+v", recycled, fresh)
	}

	// used's previous life set more on-chip cache slots than an Env lists, so
	// its recycle cleared the whole table. A short life stays on the list,
	// and its recycle zeroes exactly the slots the list names: those its
	// scalar accesses set on a miss and on a stream's next line, and those a
	// row loop set at its line crossings.
	short := p.RecycleMemoryEnv(nil, sim.NewThread("previous"), nopPager{})
	for i := 0; i < 40; i++ {
		short.ReadU64(a + mem.Addr(i*200+40))
		short.ReadU64(a + mem.Addr(i*200+40+64))
	}
	rows := short.Rows(64, 1)
	col := rows.Stream(a+8*mem.PageSize, 8, 0)
	for rows.Next() {
		_ = col.Bytes()
	}
	if short.l2Over || len(short.l2Dirty) == 0 {
		t.Fatalf("the short life overflowed the slot list (%d listed, over=%v)", len(short.l2Dirty), short.l2Over)
	}
	thS, thF := sim.NewThread("t"), sim.NewThread("t")
	recycled = p.RecycleMemoryEnv(short, thS, nopPager{})
	for i, l := range recycled.l2 {
		if l != 0 {
			t.Fatalf("slot %d holds line %d of the previous life after the listed clear", i, l)
		}
	}
	fresh = p.RecycleMemoryEnv(nil, thF, nopPager{})
	access(recycled)
	access(fresh)
	if thS.Now() != thF.Now() {
		t.Fatalf("env recycled after a short life charged %v, new env %v", thS.Now(), thF.Now())
	}
	recycled.T, fresh.T = nil, nil
	recycled.next, fresh.next = nil, nil
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("env recycled after a short life differs from a new one:\n%+v\n%+v", recycled, fresh)
	}
}

type nopPager struct{}

func (nopPager) EnsurePage(*Env, mem.PageID, bool)       {}
func (nopPager) Repeat(*Env, mem.PageID, bool, int) bool { return true }

func TestHooksAccessors(t *testing.T) {
	m := MustMachine(BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	if p.hooks != nil {
		t.Fatal("fresh process has no hooks")
	}
	h := testHooks{}
	p.SetPushHooks(h)
	if p.hooks == nil {
		t.Fatal("hooks not installed")
	}
	p.SetPushHooks(nil)
	if p.hooks != nil {
		t.Fatal("hooks not cleared")
	}
}

type testHooks struct{}

func (testHooks) ComputeFaulted(*sim.Thread, mem.PageID, bool) {}
func (testHooks) ComputeUpgrade(*sim.Thread, mem.PageID)       {}

func TestConfigErrorMessage(t *testing.T) {
	cfg := Config{HW: Linux().HW, Disaggregated: true}
	err := cfg.Validate()
	if err == nil || err.Error() == "" {
		t.Fatal("expected a descriptive error")
	}
}

func TestMustMachinePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustMachine(Config{})
}

func TestCrossPageEnvBytes(t *testing.T) {
	m := MustMachine(BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	env := p.NewEnv(sim.NewThread("t"))
	base := p.Space.AllocPages(2*mem.PageSize, "buf")
	edge := base + mem.PageSize - 3
	in := []byte{1, 2, 3, 4, 5, 6}
	env.WriteBytes(edge, in)
	out := make([]byte, 6)
	env.ReadBytes(edge, out)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("cross-page env bytes")
		}
	}
	env.ReadBytes(edge, nil) // zero-length must be a no-op
	env.WriteBytes(edge, nil)
}

// poolDownInjector reports the pool down until a fixed virtual time.
// (fault.Plan is the production implementation; a scripted fake keeps the
// test independent of any profile's schedule.)

func TestWaitPoolUpStallsPaging(t *testing.T) {
	m := MustMachine(BaseDDC(4 * mem.PageSize))
	plan := fault.NewPlan(fault.Profile{
		PoolMeanUp:   10 * sim.Millisecond,
		PoolMeanDown: sim.Millisecond,
	}, 3)
	m.AttachFault(plan)
	if m.Fault != plan {
		t.Fatal("AttachFault did not install the plan")
	}
	p := m.NewProcess()
	a := p.Space.AllocPages(mem.PageSize, "x")

	// Find a crash window and issue a remote fault from inside it: the
	// faulting thread must stall to at least the recovery time.
	var at, rec sim.Time
	for probe := sim.Time(0); ; probe += 100 * sim.Microsecond {
		if r, down := plan.DownAt(fault.Pool(), probe); down {
			at, rec = probe, r
			break
		}
		if probe > 5*sim.Second {
			t.Fatal("no crash window found")
		}
	}
	th := sim.NewThread("t")
	th.AdvanceTo(at)
	env := p.NewEnv(th)
	env.ReadU64(a) // remote fault → stall until recovery
	if th.Now() < rec {
		t.Fatalf("fault at %v finished at %v, before recovery %v", at, th.Now(), rec)
	}
	if m.PoolStalls == 0 {
		t.Fatal("stall not counted")
	}
}

func TestAttachFaultNilDetaches(t *testing.T) {
	m := MustMachine(BaseDDC(4 * mem.PageSize))
	m.AttachFault(fault.NewPlan(fault.Chaos(), 1))
	m.AttachFault(nil)
	if m.Fault != nil {
		t.Fatal("plan not detached")
	}
	th := sim.NewThread("t")
	if m.WaitPoolUp(th) {
		t.Fatal("detached machine stalled")
	}
}

func TestAttachTraceWiresFabric(t *testing.T) {
	m := MustMachine(BaseDDC(4 * mem.PageSize))
	r := trace.New(16)
	m.AttachTrace(r)
	if m.Trace != r {
		t.Fatal("ring not installed")
	}
	// The fabric shares the ring: force a retry and expect an rpc-retry
	// event in the machine's ring.
	m.AttachFault(fault.NewPlan(fault.Profile{Net: fault.NetFaults{DropProb: 1}}, 1))
	m.Fabric.Send(sim.NewThread("t"), 64, netmodel.ClassSync)
	if r.CountByKind()[trace.KindRPCRetry] == 0 {
		t.Fatal("fabric retry events did not reach the machine's ring")
	}
}

// After Release an Env that memoised the process's frames — in its stream
// slots, and the page its pager last granted — must not go on reading pages
// that now belong to whoever drew them from the arena: every Env of the
// process, attached to an image or not, compute- or memory-place, re-enters
// through the space and panics there. What was counted still answers.
func TestReleasedProcessPanicsOnAccess(t *testing.T) {
	arena := &mem.Arena{}
	for _, attached := range []bool{false, true} {
		p := MustMachine(BaseDDC(64 * mem.PageSize)).NewProcess()
		p.Space.Share(arena)
		if attached {
			src := mem.NewSpace()
			src.WriteU64(src.AllocPages(4*mem.PageSize, "dataset"), 7)
			p.Attach(src.Freeze())
		}
		a := p.Space.AllocPages(8*mem.PageSize, "v")
		envs := []*Env{
			p.NewEnv(sim.NewThread("a")),
			p.NewEnv(sim.NewThread("b")),
			p.RecycleMemoryEnv(nil, sim.NewThread("m"), nopPager{}),
		}
		for i, e := range envs {
			// Each ends on a line of its own, so each holds a slot memo and a
			// fast-path page that the next access would be served from.
			e.WriteI64(a+mem.Addr(i)*mem.PageSize, int64(i)+1)
			if got := e.ReadI64(a + mem.Addr(i)*mem.PageSize); got != int64(i)+1 {
				t.Fatalf("env %d reads %d before the release, want %d", i, got, i+1)
			}
		}
		stats, resident, allocated, pages := p.Stats(), p.Cache.Len(), p.Space.Allocated(), p.Space.Pages()

		p.Release()
		if p.Stats() != stats || p.Cache.Len() != resident || p.Space.Allocated() != allocated || p.Space.Pages() != pages {
			t.Fatalf("attached=%v: Release changed what the process reports", attached)
		}

		// The pages are someone else's now.
		next := mem.NewSpace()
		next.Share(arena)
		next.WriteU64(next.AllocPages(8*mem.PageSize, "v"), 99)
		for i, e := range envs {
			at := a + mem.Addr(i)*mem.PageSize
			for name, use := range map[string]func(){
				"ReadI64":  func() { e.ReadI64(at) },
				"WriteI64": func() { e.WriteI64(at, 1) },
				"ReadU64s": func() { e.ReadU64s(at, make([]uint64, 4)) },
			} {
				if !panics(use) {
					t.Fatalf("attached=%v: %s through env %d of a released process did not panic", attached, name, i)
				}
			}
		}
		if !panics(func() { p.Space.ReadU64(a) }) {
			t.Fatalf("attached=%v: a read of a released process's space did not panic", attached)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

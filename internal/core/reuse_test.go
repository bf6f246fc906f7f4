package core

import (
	"slices"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// Tests for the host-side storage the Runtime recycles across calls: the
// generation-stamped temporary page table and the memory-place Env. None of
// it may change what a call observes.

// An override left by call n — a page the set-up invalidated, a page the
// function dirtied — must read as the cloned default in call n+1.
func TestTempTableOverridesDoNotOutliveTheCall(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.AllocPages(2*mem.PageSize, "v")
	held, dirtied := mem.PageOf(a), mem.PageOf(a+mem.PageSize)
	p.NewEnv(th).WriteI64(a, 1) // held writable and dirty by the compute pool

	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		if present, _ := rt.temp.peek(held); present {
			t.Error("call n: a compute-writable page must start non-present")
		}
		env.WriteI64(a+mem.PageSize, 2)
		if e := rt.temp.entry(dirtied); !e.dirty || e.lastMemTouch == 0 {
			t.Errorf("call n: written page's override = %+v, want dirty with a touch time", *e)
		}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	p.Cache.Clear() // call n+1 ships an empty resident list
	_, err = rt.Pushdown(th, func(env *ddc.Env) {
		tt := &rt.temp
		if tt.len() != 0 || len(tt.dirtyPages()) != 0 {
			t.Errorf("call n+1 starts with %d overrides, %d dirty; want none", tt.len(), len(tt.dirtyPages()))
		}
		for _, pg := range []mem.PageID{held, dirtied} {
			if present, writable := tt.peek(pg); !present || !writable {
				t.Errorf("call n+1: page %d peeks (%v,%v), want the cloned default", pg, present, writable)
			}
			if e := tt.entry(pg); !e.present || !e.writable || e.dirty || e.lastMemTouch != 0 {
				t.Errorf("call n+1: page %d materialises as %+v, want the cloned default", pg, *e)
			}
		}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

// Overlapping pushdowns share one table (refs 2→1→0): the first call's exit
// must leave its overrides in place for the call still running, and only the
// last exit starts a new generation.
func TestTempTableResetsOnlyAtLastExit(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(64 * mem.PageSize))
	p := m.NewProcess()
	rt := NewRuntime(p, 2)
	a := p.Space.AllocPages(mem.PageSize, "x")
	pg := mem.PageOf(a)
	gen0 := rt.temp.gen

	var sawShared, checkedAlone bool
	s := sim.NewScheduler()
	s.Spawn("short", 0, func(th *sim.Thread) {
		_, err := rt.Pushdown(th, func(env *ddc.Env) {
			env.WriteI64(a, 7) // dirties pg in the shared table
			env.Compute(1_000_000)
		}, Options{})
		if err != nil {
			t.Errorf("short pushdown: %v", err)
		}
	})
	s.Spawn("long", 0, func(th *sim.Thread) {
		_, err := rt.Pushdown(th, func(env *ddc.Env) {
			sawShared = rt.refs == 2
			env.Compute(20_000_000)
			if rt.refs != 1 {
				return
			}
			checkedAlone = true
			if rt.temp.gen != gen0 {
				t.Errorf("generation moved to %d with a call still in flight", rt.temp.gen)
			}
			if got := rt.temp.dirtyPages(); !slices.Equal(got, []mem.PageID{pg}) {
				t.Errorf("dirty pages after the first exit = %v, want [%d]", got, pg)
			}
		}, Options{})
		if err != nil {
			t.Errorf("long pushdown: %v", err)
		}
	})
	s.Run()
	if !sawShared || !checkedAlone {
		t.Fatalf("calls did not overlap as intended: shared=%v, alone=%v", sawShared, checkedAlone)
	}
	if rt.temp.gen != gen0+1 {
		t.Fatalf("generation = %d after both exits, want %d", rt.temp.gen, gen0+1)
	}
	if present, writable := rt.temp.peek(pg); !present || !writable {
		t.Fatal("override survived the last exit")
	}
}

// The fault handlers hold a *tempPTE across fabric round trips, so an entry
// must keep its address when a pushed function allocates pages beyond the
// table's extent mid-call.
func TestTempPTEPointerSurvivesTableGrowth(t *testing.T) {
	p, rt := testProc(16)
	th := sim.NewThread("caller")
	a := p.Space.AllocPages(mem.PageSize, "x")
	pg := mem.PageOf(a)
	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		tt := &rt.temp
		e := tt.entry(pg)
		chunks := len(tt.chunks)
		b := p.Space.AllocPages(8*tempChunkPages*mem.PageSize, "grown")
		env.WriteI64(b+(8*tempChunkPages-1)*mem.PageSize, 1)
		if len(tt.chunks) <= chunks {
			t.Fatalf("table did not grow: %d chunks before and after", chunks)
		}
		if tt.entry(pg) != e {
			t.Fatal("entry moved when the table grew")
		}
		e.writable = false
		if _, writable := tt.peek(pg); writable {
			t.Fatal("a write through the held pointer is not visible in the table")
		}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

// A call that reuses the Env of a call that warmed the DRAM model — lines in
// the on-chip cache, active prefetch streams — must be charged what it
// would be on a runtime that never ran anything.
func TestRecycledMemoryEnvChargesLikeFresh(t *testing.T) {
	const words = 4096
	run := func(freshRuntime bool) (Stats, sim.Time) {
		p, rt := testProc(16)
		th := sim.NewThread("caller")
		a := p.Space.AllocPages(words*8, "v")
		scan := func(env *ddc.Env) {
			for i := 0; i < words; i += 4 {
				env.ReadI64(a + mem.Addr(i)*8)
			}
		}
		if _, err := rt.Pushdown(th, scan, Options{}); err != nil {
			t.Fatal(err)
		}
		if freshRuntime {
			rt = NewRuntime(p, 1)
		}
		// Scattered then sequential reads of lines the first call touched:
		// cheap if its cache or streams leaked, full price otherwise.
		st, err := rt.Pushdown(th, func(env *ddc.Env) {
			for i := words - 8; i >= 0; i -= 1024 {
				env.ReadI64(a + mem.Addr(i)*8)
			}
			scan(env)
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st, th.Now()
	}
	recycled, recycledEnd := run(false)
	fresh, freshEnd := run(true)
	if recycled != fresh || recycledEnd != freshEnd {
		t.Fatalf("recycled env: %+v ending at %v\n   fresh env: %+v ending at %v", recycled, recycledEnd, fresh, freshEnd)
	}
}

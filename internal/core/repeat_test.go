package core

import (
	"fmt"
	"reflect"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// memPager.Repeat on a bounded memory pool stands for permission hits that
// each move the page to the head of the pool's LRU order and, for a store, mark
// the pool's copy dirty; a page the pool would have to fault in from storage is
// not a hit, and Repeat must refuse it without touching anything.

// repeatState is what a run of permission hits can move.
type repeatState struct {
	Pool    []string // the pool's pages from MRU to LRU, with their dirty bits
	Temp    [2]tempPTE
	Touches int
	Now     sim.Time
}

// boundedPoolCall runs a pushdown on a 6-page pool with the pager body drives,
// after it has made page 0 writable for the call — taking it from the compute
// pool, which read it before the call, so the pool's copy is clean — and read
// pages 1–3, which leaves page 0 the pool's least recently used. body gets the
// call's memory-place Env, a pager over the call's state and the 10 pages.
func boundedPoolCall(t *testing.T, body func(env *ddc.Env, mp *memPager, pages []mem.PageID)) {
	t.Helper()
	p := ddc.MustMachine(ddc.BaseDDC(16 * mem.PageSize)).NewProcess()
	a := p.Space.AllocPages(10*mem.PageSize, "v")
	p.ResizePool(6 * mem.PageSize)
	rt := NewRuntime(p, 1)
	th := sim.NewThread("caller")
	pages := make([]mem.PageID, 10)
	for i := range pages {
		pages[i] = mem.PageOf(a) + mem.PageID(i)
	}
	p.NewEnv(th).ReadI64(a)
	_, err := rt.Pushdown(th, func(env *ddc.Env) {
		mp := &memPager{rt: rt, st: &Stats{}}
		mp.EnsurePage(env, pages[0], true)
		for _, pg := range pages[1:4] {
			mp.EnsurePage(env, pg, false)
		}
		if pool := mp.state(env, pages).Pool; pool[len(pool)-1] != fmt.Sprint(pages[0], false) {
			t.Fatalf("set-up: pool %v does not end in page 0, clean", pool)
		}
		env.T.Advance(sim.Microsecond)
		body(env, mp, pages)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
}

func (mp *memPager) state(env *ddc.Env, pages []mem.PageID) repeatState {
	st := repeatState{Touches: mp.touches, Now: env.T.Now()}
	env.P.PoolRes.Range(func(pg mem.PageID, _, dirty bool) bool {
		st.Pool = append(st.Pool, fmt.Sprint(pg, dirty))
		return true
	})
	for i := range st.Temp {
		st.Temp[i] = *mp.rt.temp.entry(pages[i])
	}
	return st
}

// n rounds of hits on page 0 (loaded or stored) and page 1 (loaded) leave what
// one Repeat per page in the order of their last calls leaves.
func TestRepeatOnBoundedPoolMatchesPermissionHits(t *testing.T) {
	for _, write := range []bool{false, true} {
		for _, n := range []int{1, 3} {
			var got, want repeatState
			boundedPoolCall(t, func(env *ddc.Env, mp *memPager, pages []mem.PageID) {
				for i := 0; i < n; i++ {
					mp.EnsurePage(env, pages[0], write)
					mp.EnsurePage(env, pages[1], false)
				}
				want = mp.state(env, pages)
			})
			boundedPoolCall(t, func(env *ddc.Env, mp *memPager, pages []mem.PageID) {
				if !mp.Repeat(env, pages[0], write, 0) || !mp.Repeat(env, pages[1], false, 0) {
					t.Fatalf("write=%v: Repeat declines a permission hit on a pool-resident page", write)
				}
				if !mp.Repeat(env, pages[0], write, n) || !mp.Repeat(env, pages[1], false, n) {
					t.Fatalf("write=%v: Repeat declines what it agreed to", write)
				}
				got = mp.state(env, pages)
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("write=%v, n=%d:\n Repeat %+v\n  calls %+v", write, n, got, want)
			}
		}
	}
}

// A page the pool evicted is a storage fault, not a hit: Repeat declines it
// when asked, and when told to account hits on it anyway it refuses and leaves
// the pool, the touch count and the page's entry as they were — so that Rows,
// which asked first, panics rather than fault the page in silently.
func TestRepeatDeclinesPageEvictedFromPool(t *testing.T) {
	for _, write := range []bool{false, true} {
		boundedPoolCall(t, func(env *ddc.Env, mp *memPager, pages []mem.PageID) {
			for _, pg := range pages[4:] {
				mp.EnsurePage(env, pg, false)
			}
			if env.P.PoolRes.Contains(pages[0]) {
				t.Fatal("set-up: page 0 is still resident in the pool")
			}
			if mp.Repeat(env, pages[0], write, 0) {
				t.Errorf("write=%v: Repeat agrees to hits on a page the pool evicted", write)
			}
			before := mp.state(env, pages)
			if mp.Repeat(env, pages[0], write, 3) {
				t.Errorf("write=%v: Repeat accounts hits on a page the pool evicted", write)
			}
			if after := mp.state(env, pages); !reflect.DeepEqual(after, before) || env.P.PoolRes.Contains(pages[0]) {
				t.Errorf("write=%v: a refused Repeat moved state:\n before %+v\n  after %+v", write, before, after)
			}
		})
	}
}

package ddc_test

import (
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
)

// recorder passes every call on to the Env's own pager and logs the pages
// they reference, in order: each EnsurePage, and each Repeat of n > 0 hits
// the pager accepts (its n calls after the first find the page at the head
// of the LRU order, so they are hits at any capacity and need no entry).
// A fast-path access never reaches the pager: it repeats the page of the
// Env's last pager call, which no other Env has moved from the head.
type recorder struct {
	ddc.Pager
	refs *[]mem.PageID
}

func (r recorder) EnsurePage(e *ddc.Env, pg mem.PageID, write bool) {
	*r.refs = append(*r.refs, pg)
	r.Pager.EnsurePage(e, pg, write)
}

func (r recorder) Repeat(e *ddc.Env, pg mem.PageID, write bool, n int) bool {
	ok := r.Pager.Repeat(e, pg, write, n)
	if ok && n > 0 {
		*r.refs = append(*r.refs, pg)
	}
	return ok
}

// stackDistances returns each reference's LRU stack distance: how many
// distinct other pages were referenced since the same page last was, or -1
// for a page's first reference (Mattson et al., 1970). A Fenwick tree over
// reference times holds a 1 at each page's latest use, so a distance is a
// range sum (Bennett and Kruskal, 1975), and the pass is O(N log N).
func stackDistances(refs []mem.PageID) []int {
	tree := make([]int, len(refs)+1)
	add := func(i, v int) {
		for i++; i < len(tree); i += i & -i {
			tree[i] += v
		}
	}
	prefix := func(i int) int { // the sum over times [0, i)
		s := 0
		for ; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	last := make(map[mem.PageID]int)
	dist := make([]int, len(refs))
	for i, pg := range refs {
		if j, ok := last[pg]; ok {
			dist[i] = prefix(i) - prefix(j+1)
			add(j, -1)
		} else {
			dist[i] = -1
		}
		last[pg] = i
		add(i, 1)
	}
	return dist
}

// misses returns the references an LRU cache of capacity pages misses, in
// order: those with a stack distance of capacity or more, and the cold ones.
func misses(refs []mem.PageID, dist []int, capacity int) []mem.PageID {
	var out []mem.PageID
	for i, d := range dist {
		if d < 0 || d >= capacity {
			out = append(out, refs[i])
		}
	}
	return out
}

// runQ9 runs TPC-H Q9 on a new process of cfg with its memory pool bounded
// to poolPages (0: unbounded) and returns its paging statistics, recording
// the compute Env's page references into refs when it is not nil.
func runQ9(cfg ddc.Config, poolPages int, refs *[]mem.PageID) ddc.ProcStats {
	p := ddc.MustMachine(cfg).NewProcess()
	d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: 0.5, Seed: 7})
	if poolPages > 0 {
		p.ResizePool(int64(poolPages) * mem.PageSize)
	}
	ex := profile.NewExec(sim.NewThread("q9"), p, nil)
	if refs != nil {
		ddc.WrapPager(ex.Env, func(inner ddc.Pager) ddc.Pager { return recorder{inner, refs} })
	}
	tpch.Q9(ex, d, tpch.GreenPart)
	return p.Stats()
}

// unbounded is a cache capacity, in pages, that no Q9 run fills.
const unbounded = 1 << 28

// TestMissCurvesMatchStackDistances holds the compute cache and the memory
// pool to the LRU stack property: one base-DDC run of Q9 with a cache it
// never fills records the reference string, and at every capacity c the
// simulator must fault on exactly the references whose stack distance is c
// or more, on a base DDC and on a monolithic server swapping to its SSD. The
// pool's reference string is the compute cache's miss stream (a write-back
// does not touch the pool's order), so the same pass over that stream
// predicts the storage faults of every (cache, pool) pair. Prefetch inserts
// pages no reference asked for, so with it the prediction must fail.
func TestMissCurvesMatchStackDistances(t *testing.T) {
	bytes := func(pages int) int64 { return int64(pages) * mem.PageSize }
	baseDDC := func(pages int) ddc.Config {
		cfg := ddc.BaseDDC(bytes(pages))
		cfg.PrefetchDepth = 0
		return cfg
	}
	var refs []mem.PageID
	runQ9(baseDDC(unbounded), 0, &refs)
	dist := stackDistances(refs)
	pages := len(misses(refs, dist, unbounded)) // the cold misses alone
	if pages < 400 {
		t.Fatalf("Q9 references %d distinct pages; the capacities below assume more", pages)
	}
	capacities := []int{8, 16, 48, 128, 400, pages / 2, pages}
	t.Logf("%d references to %d pages", len(refs), pages)

	for _, c := range capacities {
		want := int64(len(misses(refs, dist, c)))
		if got := runQ9(baseDDC(c), 0, nil).RemoteFaults; got != want {
			t.Errorf("base-ddc, %d-page cache: %d remote faults, stack distances predict %d", c, got, want)
		}
	}

	// A monolithic server's DRAM over its swap is the same LRU cache, and
	// without prefetch it sees the same references.
	for _, c := range capacities {
		want := int64(len(misses(refs, dist, c)))
		if got := runQ9(ddc.LinuxSSD(bytes(c)), 0, nil).SSDFaults; got != want {
			t.Errorf("linux-ssd, %d-page DRAM: %d swap-ins, stack distances predict %d", c, got, want)
		}
	}

	for _, c := range []int{16, 48} {
		stream := misses(refs, dist, c)
		streamDist := stackDistances(stream)
		for _, pool := range []int{64, 200, 600} {
			want := int64(len(misses(stream, streamDist, pool)))
			if got := runQ9(baseDDC(c), pool, nil).StorageInFault; got != want {
				t.Errorf("base-ddc, %d-page cache, %d-page pool: %d storage faults, stack distances predict %d",
					c, pool, got, want)
			}
		}
	}

	prefetch := ddc.BaseDDC(bytes(unbounded))
	var preRefs []mem.PageID
	runQ9(prefetch, 0, &preRefs)
	preDist := stackDistances(preRefs)
	broken := false
	for _, c := range capacities {
		prefetch.CacheBytes = bytes(c)
		if runQ9(prefetch, 0, nil).RemoteFaults != int64(len(misses(preRefs, preDist, c))) {
			broken = true
			break
		}
	}
	if !broken {
		t.Error("with PrefetchDepth 2 every capacity matched its stack-distance prediction; the oracle cannot tell prefetch from LRU")
	}
}

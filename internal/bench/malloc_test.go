package bench

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/ddc"
	"teleport/internal/graph"
	"teleport/internal/mapreduce"
	"teleport/internal/tpch"
)

// TestFigureMallocBudget gates host allocations per figure run, at the
// repository benchmark's smoke sizes: the three figures that are half of the
// suite's time must stay under a fixed object count, and so must two of the
// microbenchmark figures, which were 42 % of the suite's allocated bytes
// before their cells handed their pages on — those two under a byte count as
// well. The ceilings sit about 25 % above what the runs measure. A fault path,
// generator or loader that starts allocating per page, per vertex or per row
// again goes well past them — with one heap node and one victim slice per page
// fault Figs 15, 13 and 3 cost 411 k, 52 k and 34 k objects — and so does a
// cell that generates its own dataset instead of attaching its figure's
// (5 561, 4 629 and 2 723) or one that keeps its memory instead of releasing
// it (3 467, 3 060 and 1 771): a microbenchmark cell touches 8.65 MB of array,
// so Fig 21's 25 cells and Fig 6's 5 allocate what about two of them need when
// each runs on the pages of the one before, and 25 and 5 times 8.65 MB and
// more when any of them stops. Their pushdowns cannot abort, so they keep no
// pre-images; journalling most of the array again, as every call once did,
// costs 5 642 objects and 28.1 MB for Fig 21 and 4 342 and 18.8 MB for Fig 6.
// Fig 11 reads no Options size and no file: it renders a literal table.
func TestFigureMallocBudget(t *testing.T) {
	opts := Options{Scale: 0.02, GraphNV: 600, Words: 2000, Seed: 1, CacheFrac: 0.02, Parallel: 1, SimWorkers: 1}
	for _, fig := range []struct {
		id      string
		objects uint64
		bytes   uint64 // 0: not gated
	}{
		{"15", 2700, 0},    // measured 1 626, and 1 669 under the race detector
		{"13", 2950, 0},    // measured 2 151
		{"3", 1750, 0},     // measured 1 396
		{"21", 4600, 22e6}, // measured 3 899 and 17.7 MB (81 744 and 341 MB unreleased)
		{"6", 3050, 13e6},  // measured 2 482 and 10.4 MB (16 402 and 68 MB unreleased)
		{"11", 21, 0},      // measured 18 (13 585 parsing its sources, 55 567 a file per function)
	} {
		run := func() (objects, bytes uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(fig.id, opts); err != nil {
				t.Fatalf("figure %s: %v", fig.id, err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		run() // one-time initialisation is not the figure's cost
		objects, bytes := run()
		t.Logf("figure %s: %d mallocs, %.1f MB per run (ceilings %d, %.1f MB)",
			fig.id, objects, float64(bytes)/1e6, fig.objects, float64(fig.bytes)/1e6)
		if objects > fig.objects {
			t.Errorf("figure %s: %d mallocs per run, budget %d", fig.id, objects, fig.objects)
		}
		if fig.bytes > 0 && bytes > fig.bytes {
			t.Errorf("figure %s: %.1f MB allocated per run, budget %.1f MB", fig.id, float64(bytes)/1e6, float64(fig.bytes)/1e6)
		}
	}
}

// TestGeneratorsAllocatePerRange gates the dataset generators' host
// allocations against their size: each generator runs at a small and a large
// size, and the large run may allocate at most 16 objects more than the small
// one. The generators fill whole ranges (tpch's columns, the CSR arrays, the
// corpus, RunCluster's partitions) and populate each range's frames in one
// allocation (mem.Space.Populate), so their object counts do not grow with
// the data. With a frame allocated per page they grew by one object per
// 4 KB: 435 and 3 994 objects for the cluster, 224 and 1 233 for tpch.Load,
// 41 and 561 for graph.Generate, 21 and 230 for GenerateCorpus.
func TestGeneratorsAllocatePerRange(t *testing.T) {
	// A count is the least of three runs, with the collector off while each
	// runs: the host's own allocations (a collection emptying a sync.Pool, a
	// goroutine that finds no dead one to reuse) add up to a few tens of
	// objects to a cluster run, at either size.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	objects := func(at func(large bool) func(), large bool) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			gen := at(large)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			gen()
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	proc := func() *ddc.Process { return ddc.MustMachine(ddc.Linux()).NewProcess() }
	for _, g := range []struct {
		name string
		at   func(large bool) func() // a run of the generator at the small or large size
	}{
		{"RunCluster 8×2", func(large bool) func() {
			opts := Options{Scale: 0.05, Seed: 1, CacheFrac: 0.02, Parallel: 1, SimWorkers: 1}
			if large {
				opts.Scale = 1
			}
			return func() {
				if _, err := RunCluster(opts, 8, 2); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"tpch.Load", func(large bool) func() {
			db, cfg := coldb.NewDB(proc()), tpch.Config{Scale: 0.1, Seed: 1}
			if large {
				cfg.Scale = 1
			}
			return func() { tpch.Load(db, cfg) }
		}},
		{"graph.Generate", func(large bool) func() {
			p, cfg := proc(), graph.GenConfig{NV: 2000, AvgDegree: 6, Seed: 1}
			if large {
				cfg.NV = 40000
			}
			return func() { graph.Generate(p, cfg) }
		}},
		{"mapreduce.GenerateCorpus", func(large bool) func() {
			p, cfg := proc(), mapreduce.CorpusConfig{Words: 10000, Vocab: 4000, Seed: 1}
			if large {
				cfg.Words = 250000
			}
			return func() { mapreduce.GenerateCorpus(p, cfg) }
		}},
	} {
		g.at(false)() // one-time initialisation is not the generator's cost
		small, large := objects(g.at, false), objects(g.at, true)
		t.Logf("%s: %d objects small, %d large", g.name, small, large)
		if large > small+16 {
			t.Errorf("%s: %d objects at the large size, %d at the small: it allocates per page, not per range", g.name, large, small)
		}
	}
}

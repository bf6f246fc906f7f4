package bench

import (
	"runtime"
	"testing"
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
		{"21", 4600, 22e6}, // measured 3 658 and 17.7 MB (81 744 and 341 MB unreleased)
		{"6", 3050, 13e6},  // measured 2 431 and 10.4 MB (16 402 and 68 MB unreleased)
		{"11", 21, 0},      // measured 17 (13 585 parsing its sources, 55 567 a file per function)
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

package bench

import (
	"runtime"
	"testing"
)

// TestFigureMallocBudget gates host allocations per figure run: the three
// figures that are half of the suite's cost, at the repository benchmark's
// smoke sizes, must stay under a fixed object count. The ceilings sit about
// 25 % above what the runs measure; a fault path, generator or loader that
// starts allocating per page, per vertex or per row again goes well past
// them — with one heap node and one victim slice per page fault these runs
// cost 411 k, 52 k and 34 k objects — and so does a cell that generates its
// own dataset instead of attaching its figure's: 5 561, 4 629 and 2 723.
func TestFigureMallocBudget(t *testing.T) {
	opts := Options{Scale: 0.02, GraphNV: 600, Words: 2000, Seed: 1, CacheFrac: 0.02, Parallel: 1, SimWorkers: 1}
	for _, fig := range []struct {
		id      string
		ceiling uint64
	}{
		{"15", 4350}, // measured 3 467
		{"13", 3850}, // measured 3 060
		{"3", 2200},  // measured 1 771
	} {
		run := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(fig.id, opts); err != nil {
				t.Fatalf("figure %s: %v", fig.id, err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		run() // one-time initialisation is not the figure's cost
		got := run()
		t.Logf("figure %s: %d mallocs per run (ceiling %d)", fig.id, got, fig.ceiling)
		if got > fig.ceiling {
			t.Errorf("figure %s: %d mallocs per run, budget %d", fig.id, got, fig.ceiling)
		}
	}
}

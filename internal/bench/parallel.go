package bench

import (
	"runtime"
	"sync"
)

// Host-parallel execution of figure data points.
//
// Every simulated run is hermetic: it builds its own Machine, Process,
// Scheduler and RNGs, and the sim packages keep no package-level state, so
// two runs share only frozen images — the datasets of their entry point's
// scope, attached copy-on-write — and dead pages: the scope's arena, which a
// finished run's memory goes back to and which zeroes a page before it is a
// frame again (scope.go). That makes each data point of a
// figure an independent pure function of (workload, Options, runSpec) — and
// the harness exploits it by fanning data points out across host cores.
// Parallelism changes only host wall-clock time: the virtual-time answers,
// tables, and counters are bit-identical to a sequential run (enforced by
// TestParallelDeterminism).
//
// The design has two levels:
//
//   - Figures run concurrently in RunAll, one goroutine per figure. These
//     goroutines hold no pool token — they mostly block waiting for their
//     data points, and a token here would deadlock the pool.
//   - Data points (the leaf run()/runMicro() calls) go through parmap,
//     which bounds concurrent simulation work with a token pool sized by
//     Options.Parallel (default: GOMAXPROCS). Leaf jobs never spawn
//     further parmap work, so token acquisition never nests.
//
// Results are always delivered in job-index order, so a figure's rows are
// assembled exactly as the sequential loop would have.

// workersFor resolves the Parallel option: 0 means one worker per host
// core, 1 forces sequential execution, n>1 uses n workers.
func workersFor(parallel int) int {
	if parallel == 1 {
		return 1
	}
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// parmap runs the jobs — concurrently when opts carries a pool — and
// returns their results ordered by job index. Each job acquires one pool
// token for the duration of its execution, bounding the number of
// simulations in flight across all figures.
func parmap[T any](opts Options, jobs []func() T) []T {
	out := make([]T, len(jobs))
	if opts.pool == nil {
		for i, job := range jobs {
			out[i] = job()
		}
		return out
	}
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job func() T) {
			defer wg.Done()
			opts.pool <- struct{}{}
			defer func() { <-opts.pool }()
			out[i] = job()
		}(i, job)
	}
	wg.Wait()
	return out
}

// par1 runs a single job through the pool: used for data points later
// stages depend on (e.g. a profiling run), so even they respect the bound.
func par1[T any](opts Options, job func() T) T {
	return parmap(opts, []func() T{job})[0]
}

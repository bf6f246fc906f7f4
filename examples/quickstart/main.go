// Quickstart: the TELEPORT pushdown primitive in ~60 lines.
//
// A process's address space lives in the memory pool; the compute pool's
// local memory is only a cache. A memory-bound loop runs an order of
// magnitude faster when Teleported next to the data.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"teleport"
)

func main() { run(os.Stdout) }

// run executes the example and prints its report to w.
func run(w io.Writer) {
	// A disaggregated machine whose compute-local cache is 1 MB — a small
	// slice of the 32 MB working set below (the paper's 1 GB against 50 GB).
	m := teleport.NewDDCMachine(1 << 20)
	p := m.NewProcess()
	rt := teleport.NewRuntime(p, 1)
	th := teleport.NewThread("worker")

	// 32 MB of data, born in the memory pool.
	const n = 4 << 20 // int64 count
	base := p.Space.Alloc(8*n, "table")
	for i := 0; i < n; i++ {
		p.Space.WriteI64(base+teleport.Addr(i*8), int64(i%1000))
	}

	// A memory-bound function: random probes over the whole array.
	probe := func(env *teleport.Env) int64 {
		var sum int64
		x := uint64(42)
		for i := 0; i < 200000; i++ {
			x = x*6364136223846793005 + 1
			sum += env.ReadI64(base + teleport.Addr(x%n)*8)
		}
		return sum
	}

	// 1) Run it in the compute pool: every cache miss pages over the fabric.
	env := p.NewEnv(th)
	start := th.Now()
	local := probe(env)
	baseTime := th.Now() - start

	// 2) Teleport it: one syscall ships the call to the memory pool, where
	// the same pointers dereference local DRAM.
	var pushed int64
	stats, err := rt.Pushdown(th, func(env *teleport.Env) {
		pushed = probe(env)
	}, teleport.Options{})
	if err != nil {
		panic(err)
	}
	if local != pushed {
		panic("answers diverged")
	}

	fmt.Fprintf(w, "compute-pool execution: %v\n", baseTime)
	fmt.Fprintf(w, "pushdown execution:     %v  (%.1fx speedup)\n",
		stats.Total(), float64(baseTime)/float64(stats.Total()))
	fmt.Fprintf(w, "pushdown breakdown:     %v\n", stats)
	fmt.Fprintf(w, "resident pages shipped: %d (%d runs, %d-byte request)\n",
		stats.ResidentPages, stats.RLERuns, stats.RequestBytes)
}

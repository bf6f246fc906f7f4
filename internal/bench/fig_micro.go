package bench

import (
	"fmt"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

// microParams configures the §4 two-thread microbenchmark: one
// compute-intensive thread (arithmetic) and one memory-intensive thread
// randomly accessing a large array, scaled down from the paper's 50 GB.
type microParams struct {
	arrayPages   int     // the memory-intensive thread's array
	scratchPages int     // the compute thread's private dirty data
	cachePages   int     // compute-local cache
	accesses     int     // memory-thread operations
	writeFrac    float64 // fraction of memory-thread ops that write
	computeOps   float64 // compute-thread arithmetic

	// Shared-page contention (Figures 7, 21, 22): both threads write into
	// sharedPages at rate contention (per op).
	sharedPages int
	contention  float64

	// syncShared makes the pushed thread run with coherence disabled and
	// the caller syncmem the shared+array ranges first (§4.2).
	syncShared bool
	// pso runs the pushed thread under the Partial Store Ordering
	// relaxation instead (§4.2: downgrade instead of invalidate).
	pso bool
}

func defaultMicro() microParams {
	return microParams{
		arrayPages:   1792,
		scratchPages: 320,
		cachePages:   1500,
		accesses:     50000,
		writeFrac:    0.2,
		computeOps:   9_500_000, // ≈4.5 ms at 2.1 GHz
	}
}

// microMode selects the Figure 6 execution strategy.
type microMode int

const (
	microLocal microMode = iota
	microBase
	microMigrateProcess
	microEvictThread
	microCoherence
)

// microCell is the job of the microbenchmark's cell for mode and mp: the
// local and base-DDC modes run on those platforms and the three TELEPORT modes
// with two pushdown contexts, all with one memory-pool core. Its answer is the
// two threads' makespan.
func microCell(opts Options, mode microMode, mp microParams) func() runOut {
	spec := runSpec{platform: platTeleport, contexts: 2, memCores: 1}
	switch mode {
	case microLocal:
		spec.platform = platLocal
	case microBase:
		spec.platform = platBase
	}
	return cell(microbench(mode, mp), opts, spec)
}

// microbench is the two-thread microbenchmark under mode as a workload, named
// by mode and every field of mp.
func microbench(mode microMode, mp microParams) workload {
	return workload{
		Name:       fmt.Sprintf("micro%d%+v", mode, mp),
		CacheBytes: int64(mp.cachePages) * mem.PageSize,
		Build:      func(p *ddc.Process, _ Options) func(*profile.Exec) uint64 { return mp.build(p, mode) },
	}
}

// build allocates the microbenchmark's arrays in p and returns its query
// under mode, which warms the cache prepare has sized, runs the two threads
// under a scheduler of its own and answers their makespan.
func (mp microParams) build(p *ddc.Process, mode microMode) func(*profile.Exec) uint64 {
	array := p.Space.AllocPages(int64(mp.arrayPages)*mem.PageSize, "micro.array")
	scratch := p.Space.AllocPages(int64(max(mp.scratchPages, 1))*mem.PageSize, "micro.scratch")
	var shared mem.Addr
	if mp.sharedPages > 0 {
		shared = p.Space.AllocPages(int64(mp.sharedPages)*mem.PageSize, "micro.shared")
	}

	// The two thread bodies.
	memBody := func(env *ddc.Env) {
		x := uint64(0x9E3779B97F4A7C15)
		writes := int(float64(mp.accesses) * mp.writeFrac)
		contEvery := 0
		if mp.contention > 0 {
			contEvery = int(1 / mp.contention)
		}
		for i := 0; i < mp.accesses; i++ {
			x = x*6364136223846793005 + 1
			addr := array + mem.Addr(x%uint64(mp.arrayPages*mem.PageSize/8))*8
			if contEvery > 0 && i%contEvery == 0 {
				env.WriteI64(shared+mem.Addr(x%uint64(mp.sharedPages*mem.PageSize/8))*8, int64(i))
				continue
			}
			if i < writes {
				env.WriteI64(addr, int64(i))
			} else {
				env.ReadI64(addr)
			}
		}
	}
	computeBody := func(env *ddc.Env) {
		x := uint64(7)
		chunk := mp.computeOps / 100
		for i := 0; i < 100; i++ {
			env.Compute(chunk)
			x = x*2862933555777941757 + 3037000493
			if mp.scratchPages > 0 {
				env.WriteI64(scratch+mem.Addr(x%uint64(mp.scratchPages*mem.PageSize/8))*8, int64(i))
			}
			if mp.contention > 0 && mp.sharedPages > 0 {
				writesPerChunk := mp.contention * mp.computeOps / 100
				for w := 0.0; w < writesPerChunk; w++ {
					x = x*6364136223846793005 + 1
					env.WriteI64(shared+mem.Addr(x%uint64(mp.sharedPages*mem.PageSize/8))*8, int64(i))
				}
			}
		}
	}

	return func(ex *profile.Exec) uint64 {
		// Warm-up: the application has been running — the cache holds a
		// dirty working set from both threads.
		for pg := 0; pg < mp.arrayPages; pg++ {
			ex.Env.WriteI64(array+mem.Addr(pg)*mem.PageSize, int64(pg))
		}
		for pg := 0; pg < mp.scratchPages; pg++ {
			ex.Env.WriteI64(scratch+mem.Addr(pg)*mem.PageSize, 1)
		}

		s := sim.NewScheduler()
		s.SetQuantum(sim.Microsecond)
		start := ex.T.Now()

		push := func(th *sim.Thread, body core.Func, opts core.Options) {
			if _, err := ex.RT.Pushdown(th, body, opts); err != nil {
				panic(err)
			}
		}
		switch mode {
		case microLocal, microBase:
			s.Spawn("mem", start, func(th *sim.Thread) { memBody(p.NewEnv(th)) })
			s.Spawn("cpu", start, func(th *sim.Thread) { computeBody(p.NewEnv(th)) })
		case microMigrateProcess:
			s.Spawn("mem", start, func(th *sim.Thread) {
				push(th, memBody, core.Options{Flags: core.FlagMigrateProcess})
			})
			s.Spawn("cpu", start, func(th *sim.Thread) {
				push(th, computeBody, core.Options{Flags: core.FlagMigrateProcess})
			})
		case microEvictThread:
			s.Spawn("mem", start, func(th *sim.Thread) {
				push(th, memBody, core.Options{
					Flags: core.FlagEvictRanges,
					EvictRanges: []core.Range{
						{Base: array, Size: int64(mp.arrayPages) * mem.PageSize},
					},
				})
			})
			s.Spawn("cpu", start, func(th *sim.Thread) { computeBody(p.NewEnv(th)) })
		case microCoherence:
			opts := core.Options{}
			if mp.syncShared {
				opts.Flags = core.FlagNoCoherence
			}
			if mp.pso {
				opts.Flags = core.FlagPSO
			}
			s.Spawn("mem", start, func(th *sim.Thread) {
				if mp.syncShared {
					ex.RT.SyncMem(th, []core.Range{
						{Base: array, Size: int64(mp.arrayPages) * mem.PageSize},
						{Base: shared, Size: int64(max(mp.sharedPages, 1)) * mem.PageSize},
					})
				}
				push(th, memBody, opts)
			})
			s.Spawn("cpu", start, func(th *sim.Thread) { computeBody(p.NewEnv(th)) })
		}
		return uint64(s.Run() - start)
	}
}

// makespan reads a microbenchmark cell's makespan off its answer.
func makespan(o runOut) sim.Time { return sim.Time(o.Answer) }

// coherenceMsgs counts a microbenchmark cell's coherence messages, none its warm-up's.
func coherenceMsgs(o runOut) string {
	return fmt.Sprint(o.Proc.M.Fabric.Stats(netmodel.ClassCoherence).Msgs)
}

// fig6 reproduces Figure 6: the data-synchronisation ablation on the
// two-thread microbenchmark (paper: naive per-process 2.9×, per-thread
// 3.8×, on-demand coherence 11× over the base DDC).
func fig6(opts Options) *Table {
	t := &Table{
		Figure: "Fig 6",
		Title:  "Two-thread microbenchmark: data-sync ablation",
		Header: []string{"system", "makespan(s)", "speedup-vs-base"},
	}
	mp := defaultMicro()
	rows := []struct {
		name string
		mode microMode
	}{
		{"Local execution", microLocal},
		{"Base DDC", microBase},
		{"TELEPORT (per process)", microMigrateProcess},
		{"TELEPORT (per thread)", microEvictThread},
		{"TELEPORT (coherence)", microCoherence},
	}
	var jobs []func() runOut
	for _, r := range rows {
		jobs = append(jobs, microCell(opts, r.mode, mp))
	}
	results := parmap(opts, jobs)
	base := makespan(results[1]) // the Base DDC row doubles as the speedup baseline
	for i, r := range rows {
		res := makespan(results[i])
		t.AddRow(r.name, fm(res), fx(ratio(base, res)))
	}
	t.Notes = append(t.Notes, "paper: per-process 2.9x, per-thread 3.8x, coherence 11x")
	return t
}

// fig7 reproduces Figure 7: false sharing between the two threads (writes
// to distinct variables on the same pages). With the default coherence the
// pages ping-pong; disabling coherence and synchronising manually with
// syncmem restores the gains (paper: 4.6× vs 11×).
func fig7(opts Options) *Table {
	t := &Table{
		Figure: "Fig 7",
		Title:  "False sharing: default coherence vs manual syncmem",
		Header: []string{"system", "makespan(s)", "speedup-vs-base"},
	}
	mp := defaultMicro()
	mp.sharedPages = 16
	mp.contention = 0.02 // the threads' variables share pages and are hot
	mpSync := mp
	mpSync.syncShared = true
	results := parmap(opts, []func() runOut{
		microCell(opts, microBase, mp),
		microCell(opts, microLocal, mp),
		microCell(opts, microCoherence, mp),
		microCell(opts, microCoherence, mpSync),
	})
	base, local, coh, syn := makespan(results[0]), makespan(results[1]), makespan(results[2]), makespan(results[3])

	t.AddRow("Local execution", fm(local), "")
	t.AddRow("Base DDC", fm(base), fx(1))
	t.AddRow("TELEPORT (coherence)", fm(coh), fx(ratio(base, coh)))
	t.AddRow("TELEPORT (syncmem)", fm(syn), fx(ratio(base, syn)))
	t.Notes = append(t.Notes, "paper: coherence 4.6x, syncmem 11x over base DDC")
	return t
}

// contentionRates are Figure 21/22's sweep points.
var contentionRates = []float64{0.000001, 0.00001, 0.0001, 0.001, 0.01}

// fig21 reproduces Figure 21: application performance as the contention
// rate between the compute-pool thread and the pushed thread rises (paper:
// local and base DDC flat; TELEPORT default degrades above 0.1%; the Weak
// Ordering relaxation stays flat).
func fig21(opts Options) *Table {
	t := &Table{
		Figure: "Fig 21",
		Title:  "Execution time vs contention rate",
		Header: []string{"contention", "local(s)", "base-ddc(s)", "teleport-default(s)", "teleport-pso(s)", "teleport-relaxed(s)"},
	}
	var jobs []func() runOut
	for _, r := range contentionRates {
		mp := defaultMicro()
		mp.sharedPages = 8
		mp.contention = r
		mpPSO := mp
		mpPSO.pso = true
		mpRel := mp
		mpRel.syncShared = true
		jobs = append(jobs,
			microCell(opts, microLocal, mp),
			microCell(opts, microBase, mp),
			microCell(opts, microCoherence, mp),
			microCell(opts, microCoherence, mpPSO),
			microCell(opts, microCoherence, mpRel))
	}
	results := parmap(opts, jobs)
	for i, r := range contentionRates {
		row := []string{fmt.Sprintf("%.4f%%", r*100)}
		for _, res := range results[i*5 : i*5+5] {
			row = append(row, fm(makespan(res)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: default coherence 2.1s at low contention, 3.7s at 1%; relaxed flat")
	return t
}

// fig22 reproduces Figure 22: the number of coherence messages under the
// same sweep (paper: default grows with contention; relaxed constant).
func fig22(opts Options) *Table {
	t := &Table{
		Figure: "Fig 22",
		Title:  "Coherence messages vs contention rate",
		Header: []string{"contention", "default-msgs", "relaxed-msgs"},
	}
	var jobs []func() runOut
	for _, r := range contentionRates {
		mp := defaultMicro()
		mp.sharedPages = 8
		mp.contention = r
		mpRel := mp
		mpRel.syncShared = true
		jobs = append(jobs, microCell(opts, microCoherence, mp), microCell(opts, microCoherence, mpRel))
	}
	results := parmap(opts, jobs)
	for i, r := range contentionRates {
		t.AddRow(fmt.Sprintf("%.4f%%", r*100), coherenceMsgs(results[i*2]), coherenceMsgs(results[i*2+1]))
	}
	t.Notes = append(t.Notes, "paper: default rises to ~10^6 messages at 1%; relaxed flat")
	return t
}

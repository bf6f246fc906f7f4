package bench

import (
	"fmt"

	"teleport/internal/profile"
	"teleport/internal/sim"
)

// fig14 reproduces Figure 14: disaggregated memory pools versus NVMe-SSD
// spill for Q9/Q3/Q6 with constrained local memory (paper: base DDC 10–80×
// faster than Linux+SSD; TELEPORT 210–330×).
func fig14(opts Options) *Table {
	t := &Table{
		Figure: "Fig 14",
		Title:  "Query time with constrained local memory: Linux+SSD vs DDC vs TELEPORT",
		Header: []string{"query", "linux-ssd(s)", "base-ddc(s)", "teleport(s)", "ddc-speedup", "teleport-speedup"},
	}
	queries := tpchQueries()
	outs := grid(opts, queries, platLinuxSSD, platBase, platTeleport)
	for i, q := range queries {
		ssd, base, tele := outs[i*3].Time, outs[i*3+1].Time, outs[i*3+2].Time
		t.AddRow(q.Name, fm(ssd), fm(base), fm(tele),
			fx(ratio(ssd, base)), fx(ratio(ssd, tele)))
	}
	t.Notes = append(t.Notes, "paper: LegoOS 10x/65x/80x faster than SSD; TELEPORT 330x/210x/310x")
	return t
}

// fig15 reproduces Figure 15: sweeping total memory for a workload larger
// than any single machine (Q9 at 4× scale; paper: SF200). Memory fractions
// mirror 1/16/64/128 GB against a 200 GB database; the largest
// configuration exceeds a monolithic server's capacity (N/A for Linux),
// while TELEPORT keeps scaling (paper: 2.3× over the best Linux point,
// 31.7× over LegoOS at 128 GB).
func fig15(opts Options) *Table {
	t := &Table{
		Figure: "Fig 15",
		Title:  "Q9 at 4x scale vs total memory (fraction of the database)",
		Header: []string{"memory", "linux(s)", "base-ddc(s)", "teleport(s)"},
	}
	big := opts
	big.Scale *= 4
	w := findWorkload("Q9")
	points := []struct {
		label string
		frac  float64
		linux bool
	}{
		{"0.5% (1GB)", 0.005, true},
		{"8% (16GB)", 0.08, true},
		{"32% (64GB)", 0.32, true},
		{"64% (128GB)", 0.64, false}, // exceeds the monolithic server
	}
	var jobs []func() runOut
	for _, pt := range points {
		if pt.linux {
			jobs = append(jobs, cell(w, big, runSpec{platform: platLinuxSSD, cacheFrac: pt.frac}))
		}
		jobs = append(jobs,
			cell(w, big, runSpec{platform: platBase, poolFrac: pt.frac}),
			cell(w, big, runSpec{platform: platTeleport, poolFrac: pt.frac}))
	}
	outs := parmap(opts, jobs)
	i := 0
	for _, pt := range points {
		linuxCell := "N/A"
		if pt.linux {
			linuxCell = fm(outs[i].Time)
			i++
		}
		base, tele := outs[i].Time, outs[i+1].Time
		i += 2
		t.AddRow(pt.label, linuxCell, fm(base), fm(tele))
	}
	t.Notes = append(t.Notes,
		"compute-local cache fixed at the default fraction; memory pool swept",
		"paper: TELEPORT 2.3x over best Linux, 31.7x over LegoOS at 128GB")
	return t
}

// fig16 reproduces Figure 16: Q9 pushdown speedup over the base DDC as the
// memory pool's CPU clock is throttled (paper: 17× at 0.4 GHz rising to a
// 29× plateau above 1.7 GHz).
func fig16(opts Options) *Table {
	t := &Table{
		Figure: "Fig 16",
		Title:  "Q9 TELEPORT speedup over base DDC vs memory-pool clock",
		Header: []string{"memory-clock(GHz)", "teleport(s)", "speedup-vs-base"},
	}
	w := findWorkload("Q9")
	clocks := []float64{0.4, 0.8, 1.2, 1.7, 2.1}
	jobs := []func() runOut{cell(w, opts, runSpec{platform: platBase})}
	for _, clock := range clocks {
		jobs = append(jobs, cell(w, opts, runSpec{platform: platTeleport, memClock: clock}))
	}
	outs := parmap(opts, jobs)
	base := outs[0].Time
	for i, clock := range clocks {
		tele := outs[i+1].Time
		t.AddRow(fmt.Sprintf("%.1f", clock), fm(tele), fx(ratio(base, tele)))
	}
	t.Notes = append(t.Notes, "paper: 17x at 0.4GHz, levelling off at 29x above 1.7GHz")
	return t
}

// fig17 reproduces Figure 17: eight compute threads issue concurrent
// pushdown aggregations; the memory pool has two physical cores; the number
// of parallel user contexts sweeps 1–4 (paper: speedup grows with
// diminishing returns from context switching).
func fig17(opts Options) *Table {
	t := &Table{
		Figure: "Fig 17",
		Title:  "Parallel aggregation: speedup vs number of memory-pool user contexts",
		Header: []string{"contexts", "makespan(s)", "speedup-vs-1ctx"},
	}
	w := parAgg(8)
	var jobs []func() runOut
	for contexts := 1; contexts <= 4; contexts++ {
		jobs = append(jobs, cell(w, opts, runSpec{platform: platTeleport, contexts: contexts}))
	}
	outs := parmap(opts, jobs)
	base := sim.Time(outs[0].Answer)
	for contexts := 1; contexts <= 4; contexts++ {
		tm := sim.Time(outs[contexts-1].Answer)
		t.AddRow(fmt.Sprintf("%d", contexts), fm(tm), fx(ratio(base, tm)))
	}
	t.Notes = append(t.Notes,
		"memory pool has 2 physical cores; paper: gains flatten beyond 2 contexts (context switching)")
	return t
}

// fig18 reproduces Figure 18: the level of pushdown. Q9's operators are
// ranked by memory intensity (remote accesses per second measured on the
// base DDC, §7.4), and the top-k are pushed with the memory pool's CPU at
// 50% and 25% of the compute pool's clock (paper: pushing the top 4 is
// optimal — 27× / 17.3× — and pushing everything backfires).
func fig18(opts Options) *Table {
	t := &Table{
		Figure: "Fig 18",
		Title:  "Q9 speedup vs level of pushdown (operators ranked by RM/s)",
		Header: []string{"level", "ops-pushed", "50%-clock(s)", "speedup", "25%-clock(s)", "speedup"},
	}
	w := findWorkload("Q9")
	// Profiling run on the base DDC to rank operators by memory intensity.
	// Later data points depend on the ranking, so this one runs first.
	prof := parmap(opts, []func() runOut{cell(w, opts, runSpec{platform: platBase})})[0]
	ranked := profile.ByIntensity(prof.Profile)

	levels := []struct {
		label string
		k     int
	}{{"None", 0}, {"Top 1", 1}, {"Top 4", 4}, {"Top 6", 6}, {"All", len(ranked)}}
	clockFracs := []float64{0.5, 0.25}

	// The "no pushdown" baseline at each clock is a pure run reused for
	// every level's speedup column.
	var jobs []func() runOut
	for _, clockFrac := range clockFracs {
		jobs = append(jobs, cell(w, opts, runSpec{platform: platBase, memClock: 2.1 * clockFrac}))
	}
	for _, lv := range levels {
		if lv.k == 0 {
			continue // the baseline runs above cover the "None" row
		}
		for _, clockFrac := range clockFracs {
			jobs = append(jobs, cell(w, opts, runSpec{
				platform: platTeleport, memClock: 2.1 * clockFrac, pushOps: pushing(ranked[:lv.k]),
			}))
		}
	}
	outs := parmap(opts, jobs)
	nones := outs[:len(clockFracs)]
	rest := outs[len(clockFracs):]
	i := 0
	for _, lv := range levels {
		row := []string{lv.label, fmt.Sprintf("%d", lv.k)}
		for ci := range clockFracs {
			tm := nones[ci].Time
			if lv.k > 0 {
				tm = rest[i].Time
				i++
			}
			row = append(row, fm(tm), fx(ratio(nones[ci].Time, tm)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper at 50% clock: top-1 3.3x, top-4 27x, top-6 26x, all 24x; being too aggressive backfires")
	return t
}

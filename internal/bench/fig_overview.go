package bench

import (
	"fmt"
	"math"

	"teleport/internal/dist"
	"teleport/internal/hw"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
)

// fig1a reproduces Figure 1a: the benefit of a disaggregated memory pool
// over spilling to a local NVMe SSD, for memory-intensive TPC-H queries
// (paper: base DDC 9.3×, TELEPORT 39.5× speedup over the SSD baseline).
func fig1a(opts Options) *Table {
	t := &Table{
		Figure: "Fig 1a",
		Title:  "Query speedup over NVMe-SSD spill (geomean of Q9/Q3/Q6)",
		Header: []string{"platform", "geomean-speedup"},
	}
	plats := []platform{platLinuxSSD, platBase, platTeleport}
	outs := grid(opts, tpchQueries(), plats...)
	geo := func(off int) float64 {
		prod := 1.0
		for qi := 0; qi < len(outs); qi += len(plats) {
			prod *= ratio(outs[qi].Time, outs[qi+off].Time)
		}
		return math.Cbrt(prod)
	}
	t.AddRow("NVMe SSD (Linux)", fx(1))
	t.AddRow("Base DDC", fx(geo(1)))
	t.AddRow("TELEPORT", fx(geo(2)))
	t.Notes = append(t.Notes, "paper: Base DDC 9.3x, TELEPORT 39.5x")
	return t
}

// fig1b reproduces Figure 1b: the cost of scaling — average TPC-H execution
// time normalised to a monolithic server with the same resources (paper:
// SparkSQL 1.2×, Vertica 2.3×, MonetDB on base DDC 5.4×, TELEPORT 1.8×).
// Compute-local memory is 10% of the working set, as in the paper's setup.
func fig1b(opts Options) *Table {
	t := &Table{
		Figure: "Fig 1b",
		Title:  "Cost of scaling (avg TPC-H execution time, normalised to local)",
		Header: []string{"system", "cost-of-scaling"},
	}
	queries := tpchQueries()
	var jobs []func() runOut
	for _, w := range queries {
		jobs = append(jobs, cell(w, opts, runSpec{platform: platLocal}),
			cell(w, opts, runSpec{platform: platBase, cacheFrac: 0.10}),
			cell(w, opts, runSpec{platform: platTeleport, cacheFrac: 0.10}))
	}
	outs := parmap(opts, jobs)
	var sumLocal, sumBase, sumTele sim.Time
	var bytes int64
	for qi := range queries {
		local, base, tele := outs[qi*3], outs[qi*3+1], outs[qi*3+2]
		sumLocal += local.Time
		sumBase += base.Time
		sumTele += tele.Time
		bytes = local.Proc.Space.Allocated()
	}
	cfg := hw.Testbed()
	wl := dist.Workload{Bytes: bytes, LocalSeconds: (sumLocal / 3).Seconds()}
	t.AddRow("SparkSQL (distributed model)", fmt.Sprintf("%.1fx", dist.SparkSQL().CostOfScaling(wl, &cfg)))
	t.AddRow("Vertica (distributed model)", fmt.Sprintf("%.1fx", dist.Vertica().CostOfScaling(wl, &cfg)))
	t.AddRow("coldb (Base DDC)", fmt.Sprintf("%.1fx", ratio(sumBase, sumLocal)))
	t.AddRow("coldb (TELEPORT)", fmt.Sprintf("%.1fx", ratio(sumTele, sumLocal)))
	t.Notes = append(t.Notes, "paper: SparkSQL 1.2x, Vertica 2.3x, MonetDB base DDC 5.4x, TELEPORT 1.8x")
	return t
}

// fig3 reproduces Figure 3: the DDC performance overhead of all eight
// workloads against a monolithic server (paper: 5×–52.4×).
func fig3(opts Options) *Table {
	t := &Table{
		Figure: "Fig 3",
		Title:  "Base-DDC overhead vs local execution",
		Header: []string{"system", "workload", "local(s)", "ddc(s)", "slowdown"},
	}
	workloads := allWorkloads()
	outs := grid(opts, workloads, platLocal, platBase)
	for i, w := range workloads {
		local, base := outs[i*2].Time, outs[i*2+1].Time
		t.AddRow(w.System, w.Name, fm(local), fm(base), fx(ratio(base, local)))
	}
	t.Notes = append(t.Notes, "paper: slowdowns range 5x to 52.4x; Q9 worst")
	return t
}

// fig12 reproduces Figure 12: pushing Q_filter's three operators (paper:
// projection 5.5×, selection 2.4×, aggregation 2.1× over base DDC).
func fig12(opts Options) *Table {
	t := &Table{
		Figure: "Fig 12",
		Title:  "Q_filter per-operator times (push all three operators)",
		Header: []string{"operator", "local(s)", "base-ddc(s)", "teleport(s)", "speedup-vs-base"},
	}
	outs := grid(opts, []workload{qFilter()}, platLocal, platBase, platTeleport)
	local, base, tele := outs[0], outs[1], outs[2]

	find := func(prof []profile.OpStat, name string) sim.Time {
		for _, o := range prof {
			if o.Name == name {
				return o.Time
			}
		}
		return 0
	}
	for _, op := range tpch.QFilterOps {
		lt, bt, tt := find(local.Profile, op), find(base.Profile, op), find(tele.Profile, op)
		t.AddRow(op, fm(lt), fm(bt), fm(tt), fx(ratio(bt, tt)))
	}
	t.Notes = append(t.Notes, "paper: projection 5.5x, selection 2.4x, aggregation 2.1x over base DDC")
	return t
}

// fig13 reproduces Figure 13: TELEPORT's end-to-end speedups over the base
// DDC for all eight workloads (paper: Q9 29.1×, Q3 3.2×, Q6 3.8×, SSSP 3×,
// RE 2.8×, CC 2×, WC 2.5×, Grep 4.7×).
func fig13(opts Options) *Table {
	t := &Table{
		Figure: "Fig 13",
		Title:  "Execution time normalised to local; TELEPORT speedup over base DDC",
		Header: []string{"system", "workload", "base/local", "teleport/local", "speedup"},
	}
	workloads := allWorkloads()
	outs := grid(opts, workloads, platLocal, platBase, platTeleport)
	for i, w := range workloads {
		local, base, tele := outs[i*3].Time, outs[i*3+1].Time, outs[i*3+2].Time
		t.AddRow(w.System, w.Name,
			fx(ratio(base, local)),
			fx(ratio(tele, local)),
			fx(ratio(base, tele)))
	}
	t.Notes = append(t.Notes,
		"paper speedups: Q9 29.1x, Q3 3.2x, Q6 3.8x, SSSP 3x, RE 2.8x, CC 2x, WC 2.5x, Grep 4.7x")
	return t
}

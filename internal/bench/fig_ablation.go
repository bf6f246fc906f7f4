package bench

import (
	"fmt"

	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

func init() {
	register("A2", figFabric)
	register("A3", figRLE)
	register("A4", figPrefetch)
}

// figFabric is an extension: how TELEPORT's benefit depends on the fabric.
// The paper's testbed is 56 Gb/s / 1.2 µs InfiniBand; this sweeps from a
// commodity Ethernet to a CXL-class link. The expectation — and the reason
// pushdown stays relevant on faster fabrics — is that the benefit shrinks
// but does not vanish while per-access latency still dwarfs local DRAM.
func figFabric(opts Options) *Table {
	t := &Table{
		Figure: "Ext A2",
		Title:  "Fabric sensitivity: Q9 on base DDC vs TELEPORT across interconnects",
		Header: []string{"fabric", "latency", "bandwidth", "base-ddc(s)", "teleport(s)", "speedup"},
	}
	fabrics := []struct {
		name  string
		latNs float64
		gbs   float64
	}{
		{"25GbE Ethernet", 10000, 3.1},
		{"56Gb InfiniBand (paper)", 1200, 7.0},
		{"200Gb InfiniBand", 600, 25},
		{"CXL-class", 250, 32},
	}
	w := findWorkload("Q9")
	var jobs []func() sim.Time
	for _, f := range fabrics {
		for _, p := range []platform{platBase, platTeleport} {
			jobs = append(jobs, timed(w, opts, runSpec{platform: p, netLatencyNs: f.latNs, netBandwidthGBs: f.gbs}))
		}
	}
	times := parmap(opts, jobs)
	for i, f := range fabrics {
		base, tele := times[i*2], times[i*2+1]
		t.AddRow(f.name, fmt.Sprintf("%.1fµs", f.latNs/1000), fmt.Sprintf("%.0fGB/s", f.gbs),
			fm(base), fm(tele), fx(ratio(base, tele)))
	}
	t.Notes = append(t.Notes,
		"ablation beyond the paper: pushdown's benefit shrinks with faster fabrics but persists while fabric latency >> DRAM latency")
	return t
}

// figRLE is an extension quantifying §6's run-length encoding of the
// resident-page list: the wire size of the pushdown request with and
// without RLE over the compute cache's actual contents after running Q6,
// as the cache grows. The paper reports a 20× reduction that lets the list
// ride in one RDMA message.
func figRLE(opts Options) *Table {
	t := &Table{
		Figure: "Ext A3",
		Title:  "Resident-page list wire size: raw vs run-length encoded (§6)",
		Header: []string{"cache", "resident-pages", "raw(bytes)", "rle(bytes)", "reduction"},
	}
	w := findWorkload("Q6")
	fracs := []float64{0.02, 0.05, 0.10, 0.25}
	var jobs []func() runOut
	for _, frac := range fracs {
		jobs = append(jobs, func() runOut {
			return run(w, opts, runSpec{platform: platBase, cacheFrac: frac})
		})
	}
	outs := parmap(opts, jobs)
	for i, frac := range fracs {
		out := outs[i]
		resident := out.Proc.Cache.Len()
		raw := netmodel.RawListWireSize(resident)
		rle := netmodel.RunsWireSize(out.Proc.Cache.AppendRuns(nil))
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprintf("%d", resident),
			fmt.Sprintf("%d", raw),
			fmt.Sprintf("%d", rle),
			fx(float64(raw)/float64(rle)))
	}
	t.Notes = append(t.Notes,
		"paper §6: RLE gives ~20x smaller lists; scan-heavy workloads leave long runs, so the ratio grows with the cache")
	return t
}

// figPrefetch is an extension ablating the base DDC's LegoOS-style
// sequential prefetcher on the scan-heavy Q6: the paper notes that OS-level
// caching and prefetching "on their own are insufficient" (§1); this
// quantifies how much they do help — and how far they remain from TELEPORT.
func figPrefetch(opts Options) *Table {
	t := &Table{
		Figure: "Ext A4",
		Title:  "Base-DDC sequential prefetch depth on scan-heavy Q6",
		Header: []string{"config", "time(s)", "speedup-vs-no-prefetch"},
	}
	w := findWorkload("Q6")
	depths := []int{1, 2, 4, 8}
	jobs := []func() sim.Time{
		timed(w, opts, runSpec{platform: platBase, prefetch: set(0)}),
		timed(w, opts, runSpec{platform: platTeleport}),
	}
	for _, depth := range depths {
		jobs = append(jobs, timed(w, opts, runSpec{platform: platBase, prefetch: set(depth)}))
	}
	times := parmap(opts, jobs)
	none, tele := times[0], times[1]
	t.AddRow("depth 0 (no prefetch)", fm(none), fx(1))
	for i, depth := range depths {
		t.AddRow(fmt.Sprintf("depth %d", depth), fm(times[i+2]), fx(ratio(none, times[i+2])))
	}
	t.AddRow("TELEPORT (depth 2)", fm(tele), fx(ratio(none, tele)))
	t.Notes = append(t.Notes,
		"prefetching helps scans but plateaus well short of pushdown — the §1 claim that OS optimisations alone are insufficient")
	return t
}

func init() {
	register("A5", figWorkerScaling)
}

// figWorkerScaling is an extension probing §2.1's elasticity claim against
// §7.3's memory-pool compute constraint: a parallel aggregation sweeps the
// number of compute-pool workers on each platform. Local and base-DDC
// execution scale with the workers; TELEPORT scales only until the memory
// pool's user contexts saturate — the trade-off Figure 17 measures from the
// other side.
func figWorkerScaling(opts Options) *Table {
	t := &Table{
		Figure: "Ext A5",
		Title:  "Parallel aggregation makespan vs compute-pool workers",
		Header: []string{"workers", "local", "base-ddc", "teleport-2ctx"},
	}
	runPlat := func(plat platform, workers int) sim.Time {
		var makespan sim.Time
		run(parAgg(workers, &makespan), opts, runSpec{platform: plat, contexts: 2})
		return makespan
	}
	ms := func(d sim.Time) string { return fmt.Sprintf("%.3fms", d.Millis()) }
	workerCounts := []int{1, 2, 4, 8, 16}
	var jobs []func() sim.Time
	for _, workers := range workerCounts {
		for _, p := range []platform{platLocal, platBase, platTeleport} {
			jobs = append(jobs, func() sim.Time { return runPlat(p, workers) })
		}
	}
	times := parmap(opts, jobs)
	for i, workers := range workerCounts {
		t.AddRow(fmt.Sprintf("%d", workers),
			ms(times[i*3]), ms(times[i*3+1]), ms(times[i*3+2]))
	}
	t.Notes = append(t.Notes,
		"compute workers scale freely (§2.1 elasticity); TELEPORT's gain saturates at the memory pool's 2 user contexts (§7.3)")
	return t
}

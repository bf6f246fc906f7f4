package main

// metricDef declares one metric. BENCHMARK.json repeats these declarations;
// a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a later change may lose
	// scale converts the counter a per-layer metric is read from into the
	// metric's unit (0 means 1).
	scale float64
}

// endToEndMetrics are what a user of the simulator waits and pays for.
// Simulated results are exact and are enforced as pass/fail, not bounded:
// see the README's "Two clocks".
var endToEndMetrics = []metricDef{
	{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_mallocs", Unit: "count", Better: "lower", Bound: 0.20},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayerMetrics, layer by layer. Counts are exact and come from the
// layers' own counters at run boundaries in the traced round; *_ns are
// normalised unit costs from probes; *_s are normalised self times of the
// driver's spans. "lower" on a count means less simulated work for the same
// answer; moving one is a behaviour change.
var perLayerMetrics = []metricDef{
	lower("virt.s", "s"), higher("virt.speedup", "x"),

	lower("sim.switches", "count"), lower("sim.switch_ns", "ns"), lower("sim.skipahead_ns", "ns"),
	lower("sim.window_ns_d16", "ns"), lower("sim.domain.seq_s", "s"), lower("sim.domain.par_s", "s"),
	higher("sim.domain.par_speedup", "x"),

	lower("mem.pages", "count"), lower("mem.pt_lookup_ns", "ns"), lower("mem.space_read_ns", "ns"),
	lower("mem.snapshot_page_ns", "ns"),

	higher("ddc.cache_hits", "count"), lower("ddc.cache_misses", "count"), lower("ddc.remote_faults", "count"),
	higher("ddc.prefetched", "count"), lower("ddc.writebacks", "count"), lower("ddc.storage_in_faults", "count"),
	lower("ddc.storage_evicts", "count"), lower("ddc.upgrades", "count"),
	lower("ddc.read_hit_ns", "ns"), lower("ddc.read_batched_ns", "ns"), lower("ddc.write_hit_ns", "ns"),
	lower("ddc.read_miss_ns", "ns"), lower("ddc.read_bytes_ns_per_kb", "ns/KB"), lower("ddc.shard.access_ns", "ns"),
	lower("ddc.shard.failover_reads", "count"), lower("ddc.shard.handoffs", "count"), lower("ddc.machine_build_s", "s"),

	lower("netmodel.msgs", "count"), {Name: "netmodel.bytes_mb", Unit: "MB", Better: "lower", scale: 1e-6},
	lower("netmodel.retries", "count"), lower("netmodel.send_ns", "ns"), lower("netmodel.roundtrip_ns", "ns"),
	lower("netmodel.resident_marshal_ns", "ns"), lower("netmodel.request_marshal_ns", "ns"),

	lower("storage.reads", "count"), higher("storage.seq_reads", "count"), lower("storage.writes", "count"),
	lower("storage.read_page_ns", "ns"),

	lower("core.calls", "count"), lower("core.coherence_msgs", "count"), lower("core.compute_faults", "count"),
	lower("core.retries", "count"), lower("core.local_fallbacks", "count"), lower("core.rollbacks", "count"),
	lower("core.rolled_back_pages", "count"), lower("core.breaker_opens", "count"),
	lower("core.push_ro_ns", "ns"), lower("core.push_ro_1500_ns", "ns"), lower("core.push_rw_ns", "ns"),
	lower("core.syncmem_ns_per_page", "ns"), lower("core.pushdown_span_s", "s"),

	lower("fault.injected", "count"), lower("fault.send_overhead_ns", "ns"),

	lower("tpch.load_s", "s"), lower("tpch.q9_s", "s"), lower("tpch.q3_s", "s"), lower("tpch.q6_s", "s"),
	lower("coldb.select_ns_per_row", "ns"), lower("coldb.hashprobe_ns_per_row", "ns"),
	lower("coldb.groupby_ns_per_row", "ns"), lower("olap.paging_share", "share"),

	lower("graph.generate_s", "s"), lower("graph.run_s", "s"),
	lower("mapreduce.generate_s", "s"), lower("mapreduce.run_s", "s"),

	lower("obs.attached_overhead", "x"), higher("obs.virt_identical", "bool"),

	lower("bench.fig15.host_s", "s"), lower("bench.fig13.host_s", "s"), lower("bench.fig3.host_s", "s"),
	lower("bench.fig18.host_s", "s"), lower("bench.fig21.host_s", "s"), lower("bench.figA2.host_s", "s"),
	lower("bench.fig16.host_s", "s"), lower("bench.figA1.host_s", "s"), lower("bench.fig_rest.host_s", "s"),
	lower("bench.fig15.mallocs", "count"), lower("bench.fig13.mallocs", "count"), lower("bench.fig3.mallocs", "count"),
	higher("bench.parmap.speedup", "x"),

	lower("harness.calib_ms.min", "ms"), lower("harness.calib_ms.median", "ms"), lower("harness.calib_ms.max", "ms"),
	lower("harness.trace_overhead", "x"), lower("harness.peak_rss_mb", "MB"), higher("harness.explained_share", "share"),
}

// spanMetrics maps span names to the per-layer metric their self time sums
// into.
var spanMetrics = map[string]string{
	"ddc.machine_build":  "ddc.machine_build_s",
	"tpch.load":          "tpch.load_s",
	"tpch.q9":            "tpch.q9_s",
	"tpch.q3":            "tpch.q3_s",
	"tpch.q6":            "tpch.q6_s",
	"graph.generate":     "graph.generate_s",
	"graph.run":          "graph.run_s",
	"mapreduce.generate": "mapreduce.generate_s",
	"mapreduce.run":      "mapreduce.run_s",
	"core.pushdown":      "core.pushdown_span_s",
}

// namedFigures are the figures whose host time gets its own metric (the
// others sum into bench.fig_rest.host_s); true marks the three that also
// report their allocations.
var namedFigures = map[string]bool{"15": true, "13": true, "3": true, "18": false, "21": false, "A2": false, "16": false, "A1": false}

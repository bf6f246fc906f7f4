package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/metrics"
	"teleport/internal/obs"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

// RunReport is the unified per-run observability report: the time
// attribution, per-operation latency percentiles, the hottest span paths from
// the virtual-time profile, and the run's availability/incident summary —
// one artifact an operator (or CI) reads instead of four. RunWorkload builds
// it once, as part of the WorkloadResult. Marshals to JSON deterministically;
// Fprint renders the human form.
type RunReport struct {
	// Schema is ReportSchema at the time the report was written.
	Schema   int    `json:"schema"`
	Workload string `json:"workload"`
	Platform string `json:"platform"`
	// Nanos is the query's virtual time, the sum of its operators' times
	// (load and build excluded).
	Nanos int64 `json:"nanos"`

	// Comps partitions Nanos by component: the machine's always-on TimeSet's
	// delta over the query, so it costs no virtual time. Nanos −
	// Comps.TotalNs() is CPU/DRAM compute (ComputeNs).
	Comps metrics.TimeSet `json:"components_ns"`
	// Ops is the executor's per-operator profile, in first-execution order.
	Ops []profile.OpStat `json:"ops"`

	// Latency is the per-operation percentile summary (Options.Metrics
	// runs only).
	Latency []obs.OpLatency `json:"latency,omitempty"`

	// HotPaths is the top-K span paths by self time plus profile coverage
	// (Options.TraceCap runs only).
	HotPaths      []obs.PathStat `json:"hot_paths,omitempty"`
	ProfileSelfNs int64          `json:"profile_self_ns,omitempty"`
	SkippedSpans  int            `json:"skipped_spans,omitempty"`
	DroppedEvents uint64         `json:"dropped_events,omitempty"`

	// Incidents summarises the flight recorder (Options.TraceCap runs only):
	// total triggers by kind, with the full records left to the JSONL dump.
	IncidentsTotal int            `json:"incidents_total,omitempty"`
	IncidentsKept  int            `json:"incidents_kept,omitempty"`
	IncidentKinds  []IncidentKind `json:"incident_kinds,omitempty"`

	// Fault is the chaos summary (chaos runs only).
	Fault *FaultReport `json:"fault,omitempty"`
}

// ComputeNs returns the run's compute residual.
func (rr *RunReport) ComputeNs() int64 { return rr.Nanos - rr.Comps.TotalNs() }

// IncidentKind is one degrade class's trigger count within a run.
type IncidentKind struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// reportTopK bounds the hot-path table in the unified report; the folded
// dump has every path.
const reportTopK = 12

// ReportSchema versions RunReport's JSON form. 2: the schema stamp itself,
// and the fault block's shard and runtime counters nested under "Shards" and
// "Runtime" (ddc.ShardStat, core.RuntimeStats) instead of flattened copies.
// 3: "Runtime" loses the counters of the per-call queue timeout and
// execution limit, because a call has one time limit, core.Policy.Deadline,
// whose every abort DeadlineAborts counts. 4: each fact once — "seconds"
// goes (it is "nanos"), the "attribution" object's "components_ns" and
// "ops" move to the top level, its copies of the workload, the platform and
// the query time ("total_ns", which equalled "nanos") go, and the fault
// block loses "FabricDrops", which equalled "FabricRetries". 5: latency rows
// lose "exact", because every quantile is read off the histogram's buckets.
// 6: "Runtime" loses "Shed": the pushdown workqueue has no admission cap,
// so no request is shed.
const ReportSchema = 6

// setIncidents records the flight recorder's summary: every trigger, the
// retained records, and the retained records' count per kind.
func (rr *RunReport) setIncidents(total int, kept []obs.Incident) {
	if total == 0 {
		return
	}
	rr.IncidentsTotal = total
	rr.IncidentsKept = len(kept)
	byKind := map[string]int{}
	for _, inc := range kept {
		byKind[inc.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rr.IncidentKinds = append(rr.IncidentKinds, IncidentKind{Kind: k, Count: byKind[k]})
	}
}

// WriteJSON writes the report as one indented JSON document. Deterministic:
// struct field order is fixed and every slice is pre-sorted.
func (rr *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rr)
}

// Fprint renders the observability sections in human form — the percentile
// table, the hot-path table, the incident summary and the chaos report —
// skipping those the run did not collect. The attribution tables print
// through fprintAttribution.
func (rr *RunReport) Fprint(w io.Writer) {
	if len(rr.Latency) > 0 {
		t := &Table{
			Figure: "report",
			Title:  "latency percentiles (virtual time)",
			Header: []string{"operation", "count", "p50", "p95", "p99", "p999", "max"},
		}
		for _, ol := range rr.Latency {
			t.AddRow(ol.Name, fmt.Sprintf("%d", ol.Count),
				fmtNs(ol.P50), fmtNs(ol.P95), fmtNs(ol.P99), fmtNs(ol.P999),
				fmtNs(float64(ol.MaxNs)))
		}
		t.Fprint(w)
	}
	if len(rr.HotPaths) > 0 {
		t := &Table{
			Figure: "report",
			Title:  fmt.Sprintf("hot span paths (self time; run total %s)", fmtNs(float64(rr.ProfileSelfNs))),
			Header: []string{"path", "count", "self", "total", "share"},
		}
		for _, ps := range rr.HotPaths {
			share := "-"
			if rr.ProfileSelfNs > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(ps.SelfNs)/float64(rr.ProfileSelfNs))
			}
			t.AddRow(ps.Path, fmt.Sprintf("%d", ps.Count),
				fmtNs(float64(ps.SelfNs)), fmtNs(float64(ps.TotalNs)), share)
		}
		if rr.DroppedEvents > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("ring dropped %d events; profile covers a suffix of the run", rr.DroppedEvents))
		}
		if rr.SkippedSpans > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%d spans skipped (endpoint lost to wraparound or still open)", rr.SkippedSpans))
		}
		t.Fprint(w)
	}
	if rr.IncidentsTotal > 0 {
		fmt.Fprintf(w, "incidents: %d triggered, %d retained\n", rr.IncidentsTotal, rr.IncidentsKept)
		for _, ik := range rr.IncidentKinds {
			fmt.Fprintf(w, "  %s: %d\n", ik.Kind, ik.Count)
		}
		fmt.Fprintln(w)
	}
	if rr.Fault != nil {
		fmt.Fprintln(w, rr.Fault.String())
	}
}

// Fprint renders one workload execution as cmd/ddcsim prints it: the
// virtual-time summary, the per-operator profile, the attribution tables
// when asked for, and the report's observability sections.
func (r *WorkloadResult) Fprint(w io.Writer, attribution bool) {
	fmt.Fprintf(w, "%s on %s: %.6f s (virtual)\n\n", r.Workload, r.Platform, sim.Time(r.Nanos).Seconds())
	fmt.Fprintf(w, "  %-14s %12s %10s %12s %8s\n", "operator", "time(s)", "calls", "remote(KB)", "pushed")
	for _, o := range r.Ops {
		fmt.Fprintf(w, "  %-14s %12.6f %10d %12.1f %8v\n",
			o.Name, o.Time.Seconds(), o.Calls, float64(o.RemoteByte)/1024, o.Pushed)
	}
	fmt.Fprintln(w)
	if attribution {
		r.fprintAttribution(w)
	}
	r.RunReport.Fprint(w)
}

// fprintAttribution renders the time attribution as two tables: the run-level
// component breakdown (compute first, then every non-zero component grouped
// by layer) and the per-operator rows.
func (rr *RunReport) fprintAttribution(w io.Writer) {
	secs := func(ns int64) string { return fmt.Sprintf("%.4f", sim.Time(ns).Seconds()) }
	share := func(ns int64) string {
		if rr.Nanos <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(rr.Nanos))
	}

	t := &Table{
		Figure: "report",
		Title:  fmt.Sprintf("time attribution: %s on %s (total %ss)", rr.Workload, rr.Platform, secs(rr.Nanos)),
		Header: []string{"layer", "component", "time(s)", "share"},
	}
	t.AddRow("cpu", "compute (residual)", secs(rr.ComputeNs()), share(rr.ComputeNs()))
	layers := []string{"net", "ssd", "paging", "pushdown"}
	for _, layer := range layers {
		for c := metrics.Comp(0); c < metrics.NumComps; c++ {
			if c.Layer() != layer || rr.Comps[c] == 0 {
				continue
			}
			t.AddRow(layer, c.String(), secs(rr.Comps[c]), share(rr.Comps[c]))
		}
		if n := rr.Comps.LayerNs(layer); n > 0 {
			t.AddRow(layer, "(total)", secs(n), share(n))
		}
	}
	t.Fprint(w)

	if len(rr.Ops) == 0 {
		return
	}
	ot := &Table{
		Figure: "report",
		Title:  "per-operator attribution",
		Header: []string{"operator", "time(s)", "pushed", "remote(MB)", "compute(s)", "net(s)", "ssd(s)", "paging(s)", "pushdown(s)"},
	}
	for _, o := range rr.Ops {
		pushed := ""
		if o.Pushed {
			pushed = "push"
		}
		ot.AddRow(o.Name, secs(int64(o.Time)), pushed,
			fmt.Sprintf("%.1f", float64(o.RemoteByte)/(1<<20)),
			secs(int64(o.Time)-o.Attr.TotalNs()),
			secs(o.Attr.LayerNs("net")), secs(o.Attr.LayerNs("ssd")),
			secs(o.Attr.LayerNs("paging")), secs(o.Attr.LayerNs("pushdown")))
	}
	ot.Fprint(w)
}

// FaultReport aggregates what a chaos run injected and how each layer
// recovered.
type FaultReport struct {
	Profile string
	Seed    int64

	// Injected is the plan's own count of every fault it produced.
	Injected fault.Counters

	// Recovery, layer by layer.
	FabricRetries  int64 // messages lost and retransmitted by the fabric
	SSDReadRetries int64 // device-level re-reads
	PoolStalls     int64 // paging operations that waited out a pool outage

	// Availability: concrete downtime through the run's end, replacing the
	// opaque window counts. LinkDowntime is the union of every directed
	// link's outage windows, set when the plan could partition links at all
	// (multi-shard pools only).
	PoolDowntime  sim.Time   // total whole-controller downtime
	ShardDowntime []sim.Time // per-shard downtime, indexed by shard
	LinkFaults    bool
	LinkDowntime  sim.Time

	// Shards sums the sharded pool's failover, re-sync, hinted-handoff,
	// read-repair and quorum-stall activity over its shards (zero on a
	// single-shard pool; see internal/ddc).
	Shards ddc.ShardStat

	// Runtime is the TELEPORT runtime's view of the run: what it observed
	// down, retried, degraded to local execution, rolled back and
	// short-circuited (teleport platforms only; zero elsewhere).
	Runtime core.RuntimeStats

	// Tail latency under injection (Options.Metrics runs only; nil
	// otherwise): the operation classes whose distribution chaos distorts
	// most — end-to-end pushdown (retries, backoff and fallbacks included),
	// remote page faults, and paging stalls waiting out pool outages.
	PushE2E     *obs.Percentiles // push.e2e.ns
	RemoteFault *obs.Percentiles // fault.remote.ns
	PoolStall   *obs.Percentiles // pool.stall.ns
}

// String renders the report as one summary block. A nil report (fault-free
// run) renders as a placeholder instead of panicking, so callers can print
// result.Fault unconditionally.
func (f *FaultReport) String() string {
	if f == nil {
		return "chaos: none"
	}
	// The injected line omits the plan's raw window counts; the
	// availability line reports the outages as concrete downtime instead.
	i := f.Injected
	sh, rt := f.Shards, f.Runtime
	avail := fmt.Sprintf("pool-downtime=%v", f.PoolDowntime)
	if len(f.ShardDowntime) > 0 {
		per := make([]string, len(f.ShardDowntime))
		for s, d := range f.ShardDowntime {
			per[s] = fmt.Sprintf("s%d=%v", s, d)
		}
		avail += fmt.Sprintf(", shard-downtime=[%s], failover-reads=%d resync-pages=%d shard-stalls=%d",
			strings.Join(per, " "), sh.FailoverReads, sh.ResyncPages, sh.Stalls)
	}
	if f.LinkFaults || f.LinkDowntime > 0 || sh.HandoffRecords+sh.HandoffReplays+sh.ReadRepairs+sh.QuorumStalls+rt.QuorumLostObserved+rt.QuorumAborts > 0 {
		avail += fmt.Sprintf("\n  partition: link-downtime=%v handoffs=%d replays=%d heals=%d read-repairs=%d stale-averted=%d quorum-stalls=%d quorum-lost=%d quorum-aborts=%d",
			f.LinkDowntime, sh.HandoffRecords, sh.HandoffReplays, sh.PartitionHeals,
			sh.ReadRepairs, sh.StaleReadsAverted, sh.QuorumStalls, rt.QuorumLostObserved, rt.QuorumAborts)
	}
	s := fmt.Sprintf(
		"chaos profile=%s seed=%d\n  injected: drops=%d corrupt=%d spikes=%d ctx-crashes=%d ctx-mid-crashes=%d ssd-errs=%d\n  availability: %s\n  recovered: fabric retries=%d, ssd re-reads=%d, pool stalls=%d\n  pushdown: pool-down obs=%d shard-down obs=%d ctx crashes=%d retries=%d local fallbacks=%d\n  crash-consistency: rollbacks=%d (pages=%d) deadline-aborts=%d breaker opens=%d closes=%d short-circuits=%d",
		f.Profile, f.Seed,
		i.Drops, i.Corruptions, i.Spikes, i.CtxCrashes, i.CtxMidCrashes, i.SSDReadErrors,
		avail,
		f.FabricRetries, f.SSDReadRetries, f.PoolStalls,
		rt.PoolDownObserved, rt.ShardDownObserved, rt.CtxCrashes, rt.Retries, rt.LocalFallbacks,
		rt.Rollbacks, rt.RolledBackPages, rt.DeadlineAborts,
		rt.BreakerOpens, rt.BreakerCloses, rt.BreakerShortCircuits)
	tails := []struct {
		name string
		p    *obs.Percentiles
	}{{"push-e2e", f.PushE2E}, {"remote-fault", f.RemoteFault}, {"pool-stall", f.PoolStall}}
	for _, t := range tails {
		if t.p == nil {
			continue
		}
		s += fmt.Sprintf("\n  tail %s: n=%d p50=%s p99=%s p999=%s max=%s",
			t.name, t.p.Count, fmtNs(t.p.P50), fmtNs(t.p.P99), fmtNs(t.p.P999), fmtNs(float64(t.p.MaxNs)))
	}
	return s
}

// newFaultReport reads what the run's fault plan injected and how each
// layer recovered off the finished machine; the tails point into the run's
// latency summary (empty unless Options.Metrics).
func newFaultReport(opts Options, out runOut, latency []obs.OpLatency) *FaultReport {
	m := out.Proc.M
	tot := m.Fabric.Total()
	fr := &FaultReport{
		Profile:        opts.chaos.Name,
		Seed:           opts.ChaosSeed,
		Injected:       m.Fault.Counters(),
		FabricRetries:  tot.Retries,
		SSDReadRetries: m.SSD.Stats().ReadRetries,
		PoolStalls:     m.PoolStalls,
		PoolDowntime:   m.Fault.Downtime(out.End, fault.Pool()),
		Shards:         m.ShardTotals(),
	}
	if k := len(m.ShardStats); k > 1 {
		fr.ShardDowntime = make([]sim.Time, k)
		for s := range fr.ShardDowntime {
			fr.ShardDowntime[s] = m.Fault.Downtime(out.End, fault.Shard(s))
		}
		if opts.chaos.LinkMeanUp > 0 || opts.chaos.SplitMeanUp > 0 {
			// One degraded figure over every directed link — compute↔shard
			// and shard↔shard, both directions.
			fr.LinkFaults = true
			fr.LinkDowntime = m.Fault.Downtime(out.End, fault.Links(k)...)
		}
	}
	if out.RT != nil {
		fr.Runtime = out.RT.Stats()
	}
	for i := range latency {
		switch ol := &latency[i]; ol.Name {
		case "push.e2e.ns":
			fr.PushE2E = &ol.Percentiles
		case "fault.remote.ns":
			fr.RemoteFault = &ol.Percentiles
		case "pool.stall.ns":
			fr.PoolStall = &ol.Percentiles
		}
	}
	return fr
}

// fmtNs renders virtual nanoseconds human-readably (ns/µs/ms/s by
// magnitude).
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

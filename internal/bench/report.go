package bench

import (
	"fmt"
	"io"

	"teleport/internal/metrics"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

// Report is the per-run time-attribution breakdown: where the run's virtual
// time went — compute versus fault stalls versus wire versus controller
// queueing versus the SSD — per layer and per operator. It is derived from
// the machine's always-on TimeSet, so producing it costs no virtual time and
// does not perturb the run.
type Report struct {
	Workload string `json:"workload"`
	Platform string `json:"platform"`

	// TotalNs is the virtual time the driving thread spent executing the
	// workload (load/build excluded). Comps partitions it exactly:
	// TotalNs − Comps.TotalNs() is pure CPU/DRAM compute.
	metrics.Attribution

	// Ops is the executor's per-operator profile, in first-execution order.
	Ops []profile.OpStat `json:"ops"`
}

// ComputeNs returns the run's compute residual.
func (r *Report) ComputeNs() int64 { return r.TotalNs - r.Comps.TotalNs() }

// newReport assembles the attribution report for one execution.
func newReport(workload, platform string, out runOut) *Report {
	return &Report{
		Workload: workload, Platform: platform, Attribution: out.Attr, Ops: out.Profile,
	}
}

// Fprint renders the report as two tables: the run-level component
// breakdown (compute first, then every non-zero component grouped by layer)
// and the per-operator rows.
func (r *Report) Fprint(w io.Writer) {
	secs := func(ns int64) string { return fmt.Sprintf("%.4f", sim.Time(ns).Seconds()) }
	share := func(ns int64) string {
		if r.TotalNs <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(r.TotalNs))
	}

	t := &Table{
		Figure: "report",
		Title:  fmt.Sprintf("time attribution: %s on %s (total %ss)", r.Workload, r.Platform, secs(r.TotalNs)),
		Header: []string{"layer", "component", "time(s)", "share"},
	}
	t.AddRow("cpu", "compute (residual)", secs(r.ComputeNs()), share(r.ComputeNs()))
	layers := []string{"net", "ssd", "paging", "pushdown"}
	for _, layer := range layers {
		for c := metrics.Comp(0); c < metrics.NumComps; c++ {
			if c.Layer() != layer || r.Comps[c] == 0 {
				continue
			}
			t.AddRow(layer, c.String(), secs(r.Comps[c]), share(r.Comps[c]))
		}
		if n := r.Comps.LayerNs(layer); n > 0 {
			t.AddRow(layer, "(total)", secs(n), share(n))
		}
	}
	t.Fprint(w)

	if len(r.Ops) == 0 {
		return
	}
	ot := &Table{
		Figure: "report",
		Title:  "per-operator attribution",
		Header: []string{"operator", "time(s)", "pushed", "remote(MB)", "compute(s)", "net(s)", "ssd(s)", "paging(s)", "pushdown(s)"},
	}
	for _, o := range r.Ops {
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

// Package profile provides the instrumented operator executor shared by all
// three data-intensive systems (DBMS operators, graph phases, MapReduce
// sub-phases): it runs each named operator either locally or Teleported to
// the memory pool and records a per-operator profile (execution time plus
// remote memory traffic) — the instrumentation behind Figures 10, 12, 13
// and 18.
package profile

import (
	"sort"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/metrics"
	"teleport/internal/sim"
)

// Exec runs operators on one simulated thread, optionally Teleporting named
// operators to the memory pool, and records a per-operator profile.
type Exec struct {
	T   *sim.Thread
	P   *ddc.Process
	RT  *core.Runtime // nil on monolithic platforms
	Env *ddc.Env

	// push holds the operator names to Teleport ("" = none). The level of
	// pushdown (Figure 18) is exactly the size of this set.
	push map[string]bool

	ops  []OpStat
	byID map[string]int
}

// OpStat is one operator's accumulated profile; it marshals as one operator
// row of the run report's attribution block.
type OpStat struct {
	Name       string   `json:"name"`
	Time       sim.Time `json:"ns"`
	RemoteMsgs int64    `json:"remote_msgs"`
	RemoteByte int64    `json:"remote_bytes"`
	Calls      int      `json:"calls"`
	Pushed     bool     `json:"pushed"`

	// Attr breaks Time down by attribution component (wire, SSD, fault
	// handling, pushdown protocol, ...); Time minus Attr's total is the
	// operator's pure compute.
	Attr metrics.TimeSet `json:"components_ns"`
}

// Intensity returns remote memory accesses per second of operator time —
// the §7.4 pushdown-decision metric (RM/s).
func (o OpStat) Intensity() float64 {
	if o.Time <= 0 {
		return 0
	}
	return float64(o.RemoteMsgs) / o.Time.Seconds()
}

// NewExec returns an executor for p on t. rt may be nil (no pushdown
// possible, e.g. local execution).
func NewExec(t *sim.Thread, p *ddc.Process, rt *core.Runtime) *Exec {
	return &Exec{
		T:    t,
		P:    p,
		RT:   rt,
		Env:  p.NewEnv(t),
		push: make(map[string]bool),
		byID: make(map[string]int),
	}
}

// Push marks operator names for Teleport pushdown.
func (ex *Exec) Push(names ...string) *Exec {
	for _, n := range names {
		ex.push[n] = true
	}
	return ex
}

// Run executes one operator: pushed down if marked (and a runtime exists),
// locally otherwise, accumulating its profile either way.
func (ex *Exec) Run(name string, fn func(env *ddc.Env)) {
	start := ex.T.Now()
	before := ex.P.M.Fabric.Total()
	attrBefore := *ex.P.M.Obs.Times
	pushed := ex.push[name] && ex.RT != nil
	if pushed {
		// PushdownWithPolicy absorbs recoverable failures (cancellation, pool
		// and context crashes: retry, then compute-side fallback), so a chaos
		// run still computes the same answer; only non-recoverable errors — a
		// killed function or a remote panic — surface, and those are bugs in
		// the operator, not the platform.
		var err error
		_, pushed, err = ex.RT.PushdownWithPolicy(ex.T, fn, core.Options{})
		if err != nil {
			panic("profile: pushdown failed: " + err.Error())
		}
	} else {
		fn(ex.Env)
	}
	after := ex.P.M.Fabric.Total()
	i, ok := ex.byID[name]
	if !ok {
		i = len(ex.ops)
		ex.ops = append(ex.ops, OpStat{Name: name})
		ex.byID[name] = i
	}
	o := &ex.ops[i]
	d := ex.T.Now() - start
	o.Time += d
	o.RemoteMsgs += after.Msgs - before.Msgs
	o.RemoteByte += after.Bytes - before.Bytes
	o.Calls++
	o.Pushed = o.Pushed || pushed
	o.Attr.AddSet(ex.P.M.Obs.Times.Sub(attrBefore))
	if h := ex.P.M.Obs.Hists; h != nil {
		// Only an attached registry needs the name; building it escapes.
		h.Histogram("op." + name + ".ns").Observe(d)
	}
}

// ReadStats walks the one ledger: the typed stats of every layer the executor
// drives — machine, process, runtime, its own operator calls — read into s
// under the names the layers declare. It is the only composition there is:
// the flight recorder diffs it and -metrics-out prints it, always.
func (ex *Exec) ReadStats(s *metrics.Snapshot) {
	ex.P.M.ReadStats(s)
	ex.P.ReadStats(s)
	if ex.RT != nil {
		ex.RT.ReadStats(s)
	}
	for i := range ex.ops {
		s.Counters["op."+ex.ops[i].Name+".calls"] = int64(ex.ops[i].Calls)
	}
}

// Profile returns the per-operator stats in first-execution order.
func (ex *Exec) Profile() []OpStat { return append([]OpStat(nil), ex.ops...) }

// Total returns the summed operator time.
func (ex *Exec) Total() sim.Time {
	var t sim.Time
	for _, o := range ex.ops {
		t += o.Time
	}
	return t
}

// ByIntensity returns the profile's operator names sorted by descending
// memory intensity, the ranking §7.4 pushes down by (ties keep profile order).
func ByIntensity(prof []OpStat) []string {
	ops := append([]OpStat(nil), prof...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Intensity() > ops[j].Intensity() })
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.Name
	}
	return names
}

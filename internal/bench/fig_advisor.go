package bench

import (
	"strings"

	"teleport/internal/advisor"
	"teleport/internal/hw"
)

// figAdvisor is an extension beyond the paper: §5.1/§7.4 leave automatic
// pushdown selection as future work; internal/advisor implements it. This
// ablation compares, for each TPC-H query, the hand-picked operator sets
// the paper's methodology produces against the advisor's threshold rule
// and cost model, and against pushing everything.
func figAdvisor(opts Options) *Table {
	t := &Table{
		Figure: "Ext A1",
		Title:  "Automatic pushdown selection (extension; paper future work §5.1)",
		Header: []string{"query", "strategy", "ops-pushed", "time(s)", "speedup-vs-base"},
	}
	hwCfg := hw.Testbed()
	queries := tpchQueries()

	// Stage 1: the base-DDC profiling runs (the advisor profiles these,
	// like a DBA would). Everything downstream depends on the profiles.
	bases := grid(opts, queries, platBase)

	// Stage 2: derive each query's strategies and fan their runs out.
	type strategy struct {
		name string
		ops  []string
	}
	perQuery := make([][]strategy, len(queries))
	var jobs []func() runOut
	jobIdx := make([][]int, len(queries)) // index into outs, -1 = reuse base
	for qi, w := range queries {
		base := bases[qi]

		threshCfg := advisor.DefaultConfig()
		threshCfg.ThresholdRMps = 80_000 // the paper's 80K RM/s split (§7.4)
		threshPush, _ := advisor.Recommend(base.Profile, threshCfg, &hwCfg)

		costPush, _ := costModelPush(base)

		allOps := make([]string, 0, len(base.Profile))
		for _, o := range base.Profile {
			allOps = append(allOps, o.Name)
		}

		perQuery[qi] = []strategy{
			{"hand-picked (paper §7.1)", w.PushOps},
			{"advisor threshold", threshPush},
			{"advisor cost model", costPush},
			{"push everything", allOps},
		}
		for _, s := range perQuery[qi] {
			if len(s.ops) == 0 {
				jobIdx[qi] = append(jobIdx[qi], -1)
				continue
			}
			jobIdx[qi] = append(jobIdx[qi], len(jobs))
			jobs = append(jobs, cell(w, opts, runSpec{platform: platTeleport, pushOps: pushing(s.ops)}))
		}
	}
	outs := parmap(opts, jobs)

	for qi, w := range queries {
		base := bases[qi]
		t.AddRow(w.Name, "base DDC (none)", "0", fm(base.Time), fx(1))
		for si, s := range perQuery[qi] {
			tm := base.Time
			if j := jobIdx[qi][si]; j >= 0 {
				tm = outs[j].Time
			}
			t.AddRow("", s.name,
				strings.Join(shorten(s.ops), ","), fm(tm), fx(ratio(base.Time, tm)))
		}
	}
	t.Notes = append(t.Notes,
		"the advisor selects from the base-DDC profile using §7.4's RM/s metric or the hardware cost model")
	return t
}

// shorten abbreviates operator names for the table.
func shorten(ops []string) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		if len(o) > 4 {
			o = o[:4]
		}
		out[i] = o
	}
	return out
}

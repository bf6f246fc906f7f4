package bench

import (
	"fmt"
	"math"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/tpch"
)

func init() {
	register("A6", figAvailability)
}

// availPoint is one availability cell: Q6 on a sharded pool under per-shard
// outages, with the answer retained for the correctness column.
type availPoint struct {
	ans       uint64
	elapsed   sim.Time
	failovers int64
	resync    int64
	stalls    int64
	fallbacks int64
	degraded  sim.Time // union of all outage windows through the run
}

// q6Cell is one run of Q6 on TELEPORT over a sharded pool under a fault
// profile: the answer (for the correctness column), the pushed time, the
// runtime's and the shards' recovery tallies, and how long at least one of
// the targets the figure watches was down.
type q6Cell struct {
	ans     uint64
	elapsed sim.Time
	rt      core.RuntimeStats
	shards  ddc.ShardStat // summed over the shards
	down    sim.Time
}

// shardedQ6 is the cell both availability figures (A6, A7) sweep.
func shardedQ6(opts Options, shards, replicas, writeQuorum int, prof *fault.Profile, watch []fault.Target) q6Cell {
	cfg := ddc.BaseDDC(1 << 20)
	cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = shards, replicas, writeQuorum
	m := ddc.MustMachine(cfg)
	if prof != nil {
		m.AttachFault(fault.NewPlan(*prof, opts.Seed))
	}
	p := m.NewProcess()
	th := sim.NewThread("Q6")
	d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: opts.Scale / 4, Seed: opts.Seed})
	ws := p.Space.Allocated()
	p.ResizeCache(cacheBytes(ws, 0.02))
	p.ResizePool(ws / 2)
	rt := core.NewRuntime(p, 1)
	ex := profile.NewExec(th, p, rt)
	ex.Push(q6Push...)
	ans := tpch.Q6(ex, d, 730)
	c := q6Cell{ans: math.Float64bits(ans), elapsed: ex.Total(), rt: rt.Stats()}
	for _, st := range m.ShardStats {
		c.shards.FailoverReads += st.FailoverReads
		c.shards.ResyncPages += st.ResyncPages
		c.shards.Stalls += st.Stalls
		c.shards.HandoffRecords += st.HandoffRecords
		c.shards.HandoffReplays += st.HandoffReplays
		c.shards.ReadRepairs += st.ReadRepairs
		c.shards.StaleReadsAverted += st.StaleReadsAverted
		c.shards.QuorumStalls += st.QuorumStalls
	}
	c.down = m.Fault.Downtime(th.Now(), watch...)
	return c
}

// figAvailability is an extension for the sharded pool: Q6 on TELEPORT over
// a 4-shard memory pool, sweeping the replication factor against the
// per-shard outage rate. Every cell must produce the fault-free answer; what
// varies is how — replicas ≥ 2 absorb single-shard outages as failover reads
// in degraded mode, while an unreplicated pool must stall for restarts (or
// shed pushdowns to local execution) whenever a shard holding resident
// pages is down.
func figAvailability(opts Options) *Table {
	t := &Table{
		Figure: "Ext A6",
		Title:  "Availability under shard outages: Q6 on a 4-shard pool, replicas × outage rate",
		Header: []string{"replicas", "shard-outage", "correct", "failover-reads", "resync-pages", "stalls", "fallbacks", "degraded", "slowdown"},
	}
	const shards = 4
	rates := []struct {
		name   string
		meanUp sim.Time
	}{
		{"light (~2.4%)", 2 * sim.Millisecond},
		{"heavy (~9.1%)", 500 * sim.Microsecond},
	}
	replicas := []int{1, 2, 3}

	runCell := func(reps int, prof *fault.Profile) availPoint {
		var degraded []fault.Target
		for s := 0; s < shards; s++ {
			degraded = append(degraded, fault.Shard(s))
		}
		c := shardedQ6(opts, shards, reps, 0, prof, append(degraded, fault.Pool()))
		return availPoint{
			ans: c.ans, elapsed: c.elapsed, fallbacks: c.rt.LocalFallbacks,
			failovers: c.shards.FailoverReads, resync: c.shards.ResyncPages, stalls: c.shards.Stalls,
			degraded: c.down,
		}
	}

	jobs := []func() availPoint{func() availPoint { return runCell(1, nil) }}
	for _, rate := range rates {
		prof := fault.Profile{
			Name:          fmt.Sprintf("shard-flap-%v", rate.meanUp),
			ShardMeanUp:   rate.meanUp,
			ShardMeanDown: 50 * sim.Microsecond,
		}
		for _, reps := range replicas {
			prof := prof
			reps := reps
			jobs = append(jobs, func() availPoint { return runCell(reps, &prof) })
		}
	}
	pts := parmap(opts, jobs)
	base := pts[0]
	i := 1
	for _, rate := range rates {
		for _, reps := range replicas {
			pt := pts[i]
			i++
			correct := "yes"
			if pt.ans != base.ans {
				correct = "NO"
			}
			t.AddRow(fmt.Sprintf("%d", reps), rate.name, correct,
				fmt.Sprintf("%d", pt.failovers), fmt.Sprintf("%d", pt.resync),
				fmt.Sprintf("%d", pt.stalls), fmt.Sprintf("%d", pt.fallbacks),
				fmt.Sprintf("%.1f%%", 100*float64(pt.degraded)/float64(pt.elapsed)),
				fx(ratio(pt.elapsed, base.elapsed)))
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: answers are identical in every cell (faults never change answers); replication converts shard-outage stalls into failover reads",
		"degraded = fraction of virtual time at least one shard (or the controller) was down; slowdown vs the fault-free run")
	return t
}

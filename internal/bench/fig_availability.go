package bench

import (
	"fmt"

	"teleport/internal/fault"
	"teleport/internal/sim"
)

// q6Cell is the job both figures sweep: Q6 at a quarter of the scale on
// TELEPORT, with a 2% cache and half the database in pool DRAM, over a pool
// pinned to the given topology under an ad-hoc fault profile (zero = whatever
// the options say, fault-free by default). The figures read its answer,
// retained for the correctness column, its time, the runtime's and the
// shards' recovery tallies, and how long part of the pool was down: under
// A6's profiles only shards fail, under A7's only links.
func q6Cell(opts Options, shards, replicas, writeQuorum int, prof fault.Profile) func() runOut {
	opts.Scale /= 4
	return cell(findWorkload("Q6"), opts, runSpec{
		platform: platTeleport, cacheFrac: 0.02, poolFrac: 0.5,
		shards: shards, replicas: replicas, writeQuorum: writeQuorum, chaos: prof,
	})
}

// yesNo renders a correctness cell.
func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
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

	jobs := []func() runOut{q6Cell(opts, shards, 1, 0, fault.Profile{})}
	for _, rate := range rates {
		prof := fault.Profile{
			Name:          fmt.Sprintf("shard-flap-%v", rate.meanUp),
			ShardMeanUp:   rate.meanUp,
			ShardMeanDown: 50 * sim.Microsecond,
		}
		for _, reps := range replicas {
			jobs = append(jobs, q6Cell(opts, shards, reps, 0, prof))
		}
	}
	pts := parmap(opts, jobs)
	base := pts[0]
	i := 1
	for _, rate := range rates {
		for _, reps := range replicas {
			pt := pts[i]
			i++
			sh := pt.Proc.M.ShardTotals()
			t.AddRow(fmt.Sprintf("%d", reps), rate.name, yesNo(pt.Answer == base.Answer),
				fmt.Sprintf("%d", sh.FailoverReads), fmt.Sprintf("%d", sh.ResyncPages),
				fmt.Sprintf("%d", sh.Stalls), fmt.Sprintf("%d", pt.RT.Stats().LocalFallbacks),
				fmt.Sprintf("%.1f%%", 100*float64(pt.Down)/float64(pt.Time)),
				fx(ratio(pt.Time, base.Time)))
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: answers are identical in every cell (faults never change answers); replication converts shard-outage stalls into failover reads",
		"degraded = fraction of virtual time at least one shard (or the controller) was down; slowdown vs the fault-free run")
	return t
}

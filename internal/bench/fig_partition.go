package bench

import (
	"fmt"

	"teleport/internal/fault"
	"teleport/internal/sim"
)

func init() {
	register("A7", figPartition)
}

// partPoint is one partition cell: Q6 on a replicated sharded pool under
// asymmetric link partitions, with the answer retained for the correctness
// column.
type partPoint struct {
	ans      uint64
	elapsed  sim.Time
	handoffs int64
	replays  int64
	repairs  int64
	stale    int64
	qstalls  int64
	qlost    int64
	cut      sim.Time // union of all link-outage windows through the run
}

// figPartition is an extension for partition tolerance: Q6 on TELEPORT over
// a 4-shard, 3-replica pool, sweeping the write quorum W against the link
// partition rate. Every cell must produce the fault-free answer; what varies
// is the price of consistency — W=1 commits on any reachable copy and leans
// on hinted handoff and read-repair to converge, while W≥2 stalls writes
// below quorum and sheds pushdowns with ErrQuorumLost until links heal.
func figPartition(opts Options) *Table {
	t := &Table{
		Figure: "Ext A7",
		Title:  "Partition tolerance: Q6 on a 4-shard 3-replica pool, write quorum × partition rate",
		Header: []string{"write-quorum", "partition", "correct", "handoffs", "replays", "read-repairs", "stale-averted", "quorum-stalls", "quorum-lost", "partitioned", "slowdown"},
	}
	const shards, replicas = 4, 3
	rates := []struct {
		name   string
		meanUp sim.Time
	}{
		{"light (~4.8%)", 3 * sim.Millisecond},
		{"heavy (~16.7%)", 750 * sim.Microsecond},
	}
	quorums := []int{1, 2, 3}

	runCell := func(w int, prof *fault.Profile) partPoint {
		// The partitioned column folds every directed link the pool has —
		// compute↔shard both ways and shard↔shard both ways — into one union.
		c := shardedQ6(opts, shards, replicas, w, prof, fault.Links(shards))
		return partPoint{
			ans: c.ans, elapsed: c.elapsed, qlost: c.rt.QuorumLostObserved,
			handoffs: c.shards.HandoffRecords, replays: c.shards.HandoffReplays,
			repairs: c.shards.ReadRepairs, stale: c.shards.StaleReadsAverted, qstalls: c.shards.QuorumStalls,
			cut: c.down,
		}
	}

	jobs := []func() partPoint{func() partPoint { return runCell(1, nil) }}
	for _, rate := range rates {
		prof := fault.Profile{
			Name:         fmt.Sprintf("partition-%v", rate.meanUp),
			LinkMeanUp:   rate.meanUp,
			LinkMeanDown: 150 * sim.Microsecond,
		}
		for _, w := range quorums {
			prof := prof
			w := w
			jobs = append(jobs, func() partPoint { return runCell(w, &prof) })
		}
	}
	pts := parmap(opts, jobs)
	base := pts[0]
	i := 1
	for _, rate := range rates {
		for _, w := range quorums {
			pt := pts[i]
			i++
			correct := "yes"
			if pt.ans != base.ans {
				correct = "NO"
			}
			t.AddRow(fmt.Sprintf("%d", w), rate.name, correct,
				fmt.Sprintf("%d", pt.handoffs), fmt.Sprintf("%d", pt.replays),
				fmt.Sprintf("%d", pt.repairs), fmt.Sprintf("%d", pt.stale),
				fmt.Sprintf("%d", pt.qstalls), fmt.Sprintf("%d", pt.qlost),
				fmt.Sprintf("%.1f%%", 100*float64(pt.cut)/float64(pt.elapsed)),
				fx(ratio(pt.elapsed, base.elapsed)))
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: answers are identical in every cell (partitions never change answers); version tags turn would-be stale reads into read-repairs",
		"partitioned = fraction of virtual time at least one directed link was severed; slowdown vs the fault-free W=1 run")
	return t
}

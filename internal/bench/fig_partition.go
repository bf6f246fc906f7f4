package bench

import (
	"fmt"

	"teleport/internal/fault"
	"teleport/internal/sim"
)

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

	// The partitioned column is the union of the pool's downtime, and under
	// these profiles only its directed links fail — compute↔shard both ways
	// and shard↔shard both ways.
	jobs := []func() runOut{q6Cell(opts, shards, replicas, 1, fault.Profile{})}
	for _, rate := range rates {
		prof := fault.Profile{
			Name:         fmt.Sprintf("partition-%v", rate.meanUp),
			LinkMeanUp:   rate.meanUp,
			LinkMeanDown: 150 * sim.Microsecond,
		}
		for _, w := range quorums {
			jobs = append(jobs, q6Cell(opts, shards, replicas, w, prof))
		}
	}
	pts := parmap(opts, jobs)
	base := pts[0]
	i := 1
	for _, rate := range rates {
		for _, w := range quorums {
			pt := pts[i]
			i++
			sh := pt.Proc.M.ShardTotals()
			t.AddRow(fmt.Sprintf("%d", w), rate.name, yesNo(pt.Answer == base.Answer),
				fmt.Sprintf("%d", sh.HandoffRecords), fmt.Sprintf("%d", sh.HandoffReplays),
				fmt.Sprintf("%d", sh.ReadRepairs), fmt.Sprintf("%d", sh.StaleReadsAverted),
				fmt.Sprintf("%d", sh.QuorumStalls), fmt.Sprintf("%d", pt.RT.Stats().QuorumLostObserved),
				fmt.Sprintf("%.1f%%", 100*float64(pt.Down)/float64(pt.Time)),
				fx(ratio(pt.Time, base.Time)))
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: answers are identical in every cell (partitions never change answers); version tags turn would-be stale reads into read-repairs",
		"partitioned = fraction of virtual time at least one directed link was severed; slowdown vs the fault-free W=1 run")
	return t
}

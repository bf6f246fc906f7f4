package ddc

import (
	"fmt"
	"testing"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// Property-style quorum invariant: for every valid (Replicas, W)
// configuration on a 4-shard pool, with the derived read quorum R′, a read
// issued after a committed write never observes the pre-write copy — the
// shard that serves the read holds the committed version by the time the
// read is served — under every single-partition schedule (each directed link
// severed in turn), both while the partition is open and after it heals. A
// variant additionally severs the compute→primary link during the read,
// forcing the read through the failover + read-repair path. The invariant is
// exactly what W + R′ > R buys: the write's ack set and the read's consult
// set always intersect, and the version tags turn any residual staleness
// into a repair instead of a stale serve.
func TestQuorumReadNeverObservesPreWriteCopy(t *testing.T) {
	const k = 4
	endpoints := []int{fault.EndpointCompute, 0, 1, 2, 3}
	type cut struct{ from, to int }
	var cuts []cut
	for _, from := range endpoints {
		for _, to := range endpoints {
			if from != to {
				cuts = append(cuts, cut{from, to})
			}
		}
	}
	pages := []mem.PageID{8, 9} // primaries on shards 0 and 1

	for r := 2; r <= k; r++ {
		for w := 1; w <= r; w++ {
			cfg := BaseDDC(64 * mem.PageSize)
			cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = k, r, w
			name := fmt.Sprintf("R=%d W=%d R'=%d", r, w, newTopology(&cfg).rq)
			for _, c := range cuts {
				for _, forceFailover := range []bool{false, true} {
					for _, pg := range pages {
						m := MustMachine(cfg)
						plan := fault.NewPlan(fault.Profile{Name: "q"}, 0)
						plan.Pin(fault.Link(c.from, c.to),
							fault.Window{Down: 10 * sim.Microsecond, Up: 200 * sim.Microsecond})
						primary := m.topo.replicas(pg).primary
						if forceFailover && (c.from != fault.EndpointCompute || c.to != primary) {
							plan.Pin(fault.Link(fault.EndpointCompute, primary),
								fault.Window{Down: 30 * sim.Microsecond, Up: 200 * sim.Microsecond})
						}
						m.AttachFault(plan)
						th := sim.NewThread("t")

						check := func(when string) {
							served := m.AccessPage(th, pg, false)
							if want := m.pageVer[pg]; m.copyVer(served, pg) < want {
								t.Fatalf("%s cut=%v→%v failover=%v pg=%d %s: shard %d served version %d, committed %d",
									name, c.from, c.to, forceFailover, pg, when,
									served, m.copyVer(served, pg), want)
							}
						}

						// Commit one write while the partition is open.
						th.AdvanceTo(20 * sim.Microsecond)
						served := m.AccessPage(th, pg, true)
						m.ReplicatePage(th, pg, served)
						// Read during the partition (or as soon as the
						// committed write released, if it stalled past it).
						check("during partition")
						// Read after every link has healed.
						th.AdvanceTo(400 * sim.Microsecond)
						check("after heal")
					}
				}
			}
		}
	}
}

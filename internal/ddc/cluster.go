package ddc

import (
	"fmt"

	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

// Cluster assembles n independent machines — one sim.Domain each — under a
// single scheduler for conservative parallel execution. Machines share no
// simulator state: each has its own fabric, pool, SSD, and fault plan, so
// its domain may advance concurrently with the others inside the
// scheduler's lookahead window. The only cross-machine interaction is
// Send, which charges the sender's fabric and posts a wake to the target
// thread one SyncLatency later.
//
// SyncLatency is the declared minimum cross-machine message latency. It
// must be at least the fabric's per-message wire latency (MinLatency) —
// the physical floor — and is typically much larger: rack-scale data
// systems exchange state in collective/BSP steps whose software path
// (serialization, syscall, NIC doorbell, completion polling) dwarfs the
// wire time, and a larger bound means wider windows, fewer barriers, and
// better host parallelism at zero cost to fidelity for such workloads.
type Cluster struct {
	Machines []*Machine
	Procs    []*Process
	Domains  []*sim.Domain
	SyncLat  sim.Time
}

// NewCluster builds n machines under s, one per domain, each configured by
// mk(i) (called in machine order, so per-machine variation — fault seeds,
// cache sizes — stays deterministic). The scheduler's lookahead is set to
// syncLat.
func NewCluster(s *sim.Scheduler, n int, syncLat sim.Time, mk func(i int) Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("ddc: cluster needs at least 1 machine, got %d", n)
	}
	c := &Cluster{SyncLat: syncLat}
	for i := 0; i < n; i++ {
		m, err := NewMachine(mk(i))
		if err != nil {
			return nil, fmt.Errorf("ddc: cluster machine %d: %w", i, err)
		}
		if min := m.Fabric.MinLatency(); syncLat < min {
			return nil, fmt.Errorf("ddc: cluster sync latency %v below fabric minimum %v: the lookahead would admit impossible messages", syncLat, min)
		}
		c.Machines = append(c.Machines, m)
		c.Procs = append(c.Procs, m.NewProcess())
		c.Domains = append(c.Domains, s.NewDomain(fmt.Sprintf("machine-%d", i)))
	}
	s.SetLookahead(syncLat)
	return c, nil
}

// Send models machine `from` sending a message of `bytes` to a thread on
// another machine: the transfer is charged to the sender's fabric (latency,
// bandwidth, injected faults and retries) and the target becomes runnable
// one SyncLatency after the send completes. The payload itself travels
// through host memory the caller owns; the barrier's happens-before edge
// makes that safe to read after the wake.
func (c *Cluster) Send(t *sim.Thread, from int, target *sim.Thread, bytes int) {
	c.Machines[from].Fabric.Send(t, bytes, netmodel.ClassSync)
	t.Post(target, t.Now()+c.SyncLat)
}

package bench

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/netmodel"
	"teleport/internal/sim"
)

// Multi-machine cluster workload: a BSP-style distributed scan-aggregate
// across n disaggregated machines, one sim.Domain each, exercising the
// scheduler's conservative parallel execution. Every machine scans its own
// partition through the full paging stack (remote faults, pool stalls,
// chaos faults), then the partials converge on machine 0, which merges and
// broadcasts the next superstep. All cross-machine interaction goes through
// ddc.Cluster.Send — a fabric charge plus a lookahead-respecting Post — so
// virtual times are bit-identical at every Options.SimWorkers setting.

// ClusterSyncLatency is the declared minimum cross-machine message latency
// of the cluster workload: one BSP exchange, software path included. It is
// well above the fabric's 1.2µs wire floor (ddc.NewCluster checks), which
// buys wide conservative windows — few barriers per superstep — without
// affecting fidelity for a workload that only communicates at supersteps.
const ClusterSyncLatency = 50 * sim.Microsecond

// clusterRowFactor scales the per-machine partition: rows = factor·Scale.
const clusterRowFactor = 240000

// ClusterResult is the deterministic outcome of a cluster run: every field
// is a pure function of (Options, machines, rounds) — host worker counts
// never leak in. TestParallelDeterminism compares it across SimWorkers.
type ClusterResult struct {
	Machines int
	Rounds   int
	Rows     int // per-machine partition rows

	Nanos     int64   // virtual makespan
	NodeNanos []int64 // per-machine coordinator thread finish times
	Sum       uint64  // the distributed aggregate (verified against host)

	Switches    int64 // scheduler baton handoffs
	SyncMsgs    int64 // cross-machine messages (ClassSync), all machines
	SyncRetries int64 // chaos-induced retransmissions of those
	PoolStalls  int64 // paging operations that waited out a pool outage
}

// RunCluster executes the distributed scan-aggregate on `machines` machines
// for `rounds` supersteps. Chaos options apply per machine with seeds
// derived from the machine index, so every machine has an independent but
// deterministic fault schedule.
func RunCluster(opts Options, machines, rounds int) (ClusterResult, error) {
	if machines < 1 || rounds < 1 {
		return ClusterResult{}, fmt.Errorf("bench: cluster needs machines ≥ 1 and rounds ≥ 1, got %d/%d", machines, rounds)
	}
	rows := int(clusterRowFactor * opts.Scale)
	if rows < 4096 {
		rows = 4096
	}
	frac := cmp.Or(opts.CacheFrac, Defaults().CacheFrac)
	opts, err := opts.resolve()
	if err != nil {
		return ClusterResult{}, err
	}

	s := sim.NewScheduler()
	s.SetWorkers(workersFor(opts.SimWorkers))
	c, err := ddc.NewCluster(s, machines, ClusterSyncLatency, func(i int) ddc.Config {
		cfg := ddc.BaseDDC(cacheBytes(int64(rows)*8, frac))
		opts.setTopology(&cfg)
		return cfg
	})
	if err != nil {
		return ClusterResult{}, err
	}
	for i, m := range c.Machines {
		opts.attachFault(m, opts.chaos, i)
	}

	// Build each machine's partition with free generator writes, a page at a
	// time straight into its frame — the partition's frames populated in one
	// go (mem.Space.Populate) — and compute the expected per-superstep
	// aggregate host-side for the end-to-end answer check.
	addrs := make([]mem.Addr, machines)
	var expRound uint64
	for i, p := range c.Procs {
		opts.scope.share(p)
		rng := sim.NewRNG(opts.Seed).Derive(uint64(i + 1))
		a := p.Space.Alloc(int64(rows)*8, "partition")
		addrs[i] = a
		p.Space.Populate(a, int64(rows)*8)
		for at, end := a, a+mem.Addr(rows)*8; at < end; {
			off := at & (mem.PageSize - 1)
			n := min(end-at, mem.PageSize-off)
			for w := p.Space.Own(mem.PageOf(at))[off : off+n]; len(w) > 0; w = w[8:] {
				v := rng.Uint64() >> 16 // keep sums far from overflow
				binary.LittleEndian.PutUint64(w, v)
				if v&7 != 0 {
					expRound += v
				}
			}
			at += n
		}
		p.ResizeCache(cacheBytes(p.Space.Allocated(), frac))
	}

	nodes := make([]*sim.Thread, machines)
	slots := make([]uint64, machines) // worker partials, HB via the barrier
	var total uint64
	for i := range nodes {
		i := i
		nodes[i] = c.Domains[i].Spawn(fmt.Sprintf("node-%d", i), 0, func(th *sim.Thread) {
			env := c.Procs[i].NewEnv(th)
			for r := 0; r < rounds; r++ {
				// The scan charges no CPU per row: its rows are absorbed
				// (ddc.Rows) and it pays the paging and DRAM models per page
				// and line.
				var part uint64
				scan := env.Rows(rows, 0)
				col := scan.Stream(addrs[i], 8, 0)
				for scan.Next() {
					for w := col.Bytes(); len(w) > 0; w = w[8:] {
						if v := binary.LittleEndian.Uint64(w); v&7 != 0 {
							part += v
						}
					}
				}
				if i == 0 {
					// Collect the other machines' partials, merge, then
					// broadcast the next superstep.
					for k := 1; k < machines; k++ {
						th.Block()
					}
					round := part
					for k := 1; k < machines; k++ {
						round += slots[k]
					}
					total += round
					for k := 1; k < machines; k++ {
						c.Send(th, 0, nodes[k], 16)
					}
				} else {
					slots[i] = part
					c.Send(th, i, nodes[0], 16)
					th.Block() // superstep barrier: wait for the broadcast
				}
			}
		})
	}

	end := s.Run()
	if want := expRound * uint64(rounds); total != want {
		return ClusterResult{}, fmt.Errorf("bench: cluster aggregate %d, want %d — paging stack corrupted data", total, want)
	}
	res := ClusterResult{
		Machines: machines, Rounds: rounds, Rows: rows,
		Nanos: int64(end), Sum: total, Switches: s.Switches(),
	}
	for i, m := range c.Machines {
		res.NodeNanos = append(res.NodeNanos, int64(nodes[i].Now()))
		st := m.Fabric.Stats(netmodel.ClassSync)
		res.SyncMsgs += st.Msgs
		res.SyncRetries += st.Retries
		res.PoolStalls += m.PoolStalls
	}
	return res, nil
}

// Fprint renders the deterministic cluster report. Host-side measurements
// (wall clock, worker count) are deliberately absent: the bytes written
// here must be identical at every -sim-workers setting, and CI compares
// them.
func (r ClusterResult) Fprint(w interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(w, "cluster: %d machines × %d rounds × %d rows\n", r.Machines, r.Rounds, r.Rows)
	fmt.Fprintf(w, "  makespan   %.6f s (virtual)\n", float64(r.Nanos)/1e9)
	fmt.Fprintf(w, "  aggregate  %d\n", r.Sum)
	for i, ns := range r.NodeNanos {
		fmt.Fprintf(w, "  node-%-2d    %.6f s\n", i, float64(ns)/1e9)
	}
	fmt.Fprintf(w, "  switches   %d\n", r.Switches)
	fmt.Fprintf(w, "  sync msgs  %d (%d retries)\n", r.SyncMsgs, r.SyncRetries)
	fmt.Fprintf(w, "  pool stalls %d\n", r.PoolStalls)
}

package metrics

import "teleport/internal/sim"

// This file defines the virtual-time attribution substrate. Every layer that
// charges virtual time outside plain CPU/DRAM work — the fabric, the SSD,
// the paging software paths, the pushdown runtime — adds its own charges to
// one machine-wide TimeSet under a leaf component, measured as clock deltas
// so the partition is exact. The components are disjoint by construction
// (each layer attributes only the advances it performs itself; nested calls
// into lower layers are attributed there), so for a single-threaded run
//
//	elapsed = Σ components + compute residual
//
// holds to the nanosecond. With parallel simulated threads the component
// sums are CPU time (summed across threads) and can exceed the makespan;
// the standard evaluation workloads drive the machine from one thread.

// Comp identifies one leaf attribution component.
type Comp int

// Leaf components. The seven wire components mirror netmodel's traffic
// classes in order (pagefault, writeback, coherence, pushdown, storage,
// sync, replica): a fabric span's class indexes them (internal/trace).
// NoComp marks a span kind whose duration no component is charged.
const (
	NoComp            Comp = iota - 1
	CompWirePageFault      // demand-paging transfers compute↔memory
	CompWireWriteback      // dirty-page eviction transfers
	CompWireCoherence      // invalidation/downgrade round trips
	CompWirePushdown       // pushdown request/response RPCs
	CompWireStorage        // memory pool ↔ storage pool transfers
	CompWireSync           // syncmem / eager synchronisation transfers
	CompWireReplica        // shard replication and recovery re-sync transfers
	CompSSDRead            // device page-in time
	CompSSDWrite           // device page-out time
	CompFaultSW            // page-fault handler software path
	CompPrefetch           // base-DDC sequential prefetch transfers
	CompPoolStall          // waits for a crashed memory controller
	CompPushQueue          // pushdown workqueue wait
	CompPushProto          // pushdown protocol CPU: page lists, table clone/merge, reaps, tiebreak waits
	CompPushRetry          // recovery-policy backoff waits
	NumComps
)

var compNames = [NumComps]string{
	"wire/pagefault", "wire/writeback", "wire/coherence", "wire/pushdown",
	"wire/storage", "wire/sync", "wire/replica",
	"ssd/read", "ssd/write",
	"paging/fault-handler", "paging/prefetch", "paging/pool-stall",
	"pushdown/queue", "pushdown/protocol", "pushdown/retry-wait",
}

var compLayers = [NumComps]string{
	"net", "net", "net", "net", "net", "net", "net",
	"ssd", "ssd",
	"paging", "paging", "paging",
	"pushdown", "pushdown", "pushdown",
}

// String names the component ("wire/pagefault", ...).
func (c Comp) String() string {
	if c < 0 || c >= NumComps {
		return "comp(?)"
	}
	return compNames[c]
}

// Layer returns the component's layer ("net", "ssd", "paging", "pushdown").
func (c Comp) Layer() string {
	if c < 0 || c >= NumComps {
		return "?"
	}
	return compLayers[c]
}

// TimeSet accumulates virtual nanoseconds per component. The zero value is
// ready to use; a nil *TimeSet ignores adds, so detached structures (a
// Fabric built outside a Machine) need no guards.
type TimeSet [NumComps]int64

// Add charges d of virtual time to component c (nothing to NoComp).
func (ts *TimeSet) Add(c Comp, d sim.Time) {
	if ts == nil || c < 0 || d <= 0 {
		return
	}
	ts[c] += int64(d)
}

// AddSet folds another TimeSet into the receiver (nil-safe).
func (ts *TimeSet) AddSet(d TimeSet) {
	if ts == nil {
		return
	}
	for i, v := range d {
		ts[i] += v
	}
}

// Sub returns the component-wise difference a − b (delta between two
// snapshots of the same accumulator).
func (a TimeSet) Sub(b TimeSet) TimeSet {
	var out TimeSet
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// TotalNs sums every component.
func (a TimeSet) TotalNs() int64 {
	var n int64
	for _, v := range a {
		n += v
	}
	return n
}

// LayerNs sums the components of one layer.
func (a TimeSet) LayerNs(layer string) int64 {
	var n int64
	for c, v := range a {
		if Comp(c).Layer() == layer {
			n += v
		}
	}
	return n
}

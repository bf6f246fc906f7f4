package fault

import (
	"fmt"
	"strings"

	"teleport/internal/sim"
)

// Shipped profiles. Probabilities are deliberately aggressive for a cost
// model — the point of a chaos run is to exercise every recovery path, not
// to estimate production error rates.

// FlakyNet drops ~1% of messages, corrupts ~0.2%, and delays ~2% by a
// 5–20 µs congestion spike, on every traffic class.
func FlakyNet() Profile {
	return Profile{
		Name:        "flaky-net",
		Description: "1% loss, 0.2% corruption, 2% latency spikes on all classes",
		Net: NetFaults{
			DropProb:    0.01,
			CorruptProb: 0.002,
			SpikeProb:   0.02,
			SpikeMinNs:  5e3,
			SpikeMaxNs:  20e3,
		},
	}
}

// CrashyPool crashes the memory controller roughly every 20 ms of virtual
// time for ~1 ms, with a trickle of message loss so retry paths overlap.
func CrashyPool() Profile {
	return Profile{
		Name:         "crashy-pool",
		Description:  "memory controller crashes ~every 20ms for ~1ms, 0.2% loss",
		Net:          NetFaults{DropProb: 0.002},
		PoolMeanUp:   20 * sim.Millisecond,
		PoolMeanDown: sim.Millisecond,
	}
}

// FlakySSD fails ~5% of storage-pool page reads, forcing device-level
// re-reads, and crashes ~2% of pushdown contexts.
func FlakySSD() Profile {
	return Profile{
		Name:           "flaky-ssd",
		Description:    "5% SSD read errors, 2% pushdown-context crashes",
		SSDReadErrProb: 0.05,
		CtxCrashProb:   0.02,
	}
}

// MidCrash crashes ~25% of pushdown contexts mid-execution, after they have
// begun dirtying pages in the memory pool, forcing the undo-journal rollback
// path before every retry or fallback.
func MidCrash() Profile {
	return Profile{
		Name:            "mid-crash",
		Description:     "25% of pushdown contexts crash mid-execution (undo-log rollback)",
		CtxCrashMidProb: 0.25,
	}
}

// Chaos combines every fault kind at once.
func Chaos() Profile {
	p := FlakyNet()
	p.Name = "chaos"
	p.Description = "flaky-net + controller crashes + context crashes (pre-commit and mid-execution) + SSD errors"
	p.PoolMeanUp = 25 * sim.Millisecond
	p.PoolMeanDown = sim.Millisecond
	p.CtxCrashProb = 0.03
	p.CtxCrashMidProb = 0.05
	p.SSDReadErrProb = 0.03
	return p
}

// ShardFlap crashes individual pool shards roughly every 2 ms of virtual
// time for ~200 µs each (~9% per-shard downtime), with the whole controller
// staying up — the pure partial-failure regime that replication and
// failover reads exist for. The cadence is deliberately much faster than
// the whole-controller profiles so even millisecond-scale workloads cross
// several outages per shard.
func ShardFlap() Profile {
	return Profile{
		Name:          "shard-flap",
		Description:   "each pool shard crashes ~every 2ms for ~200µs (controller stays up)",
		ShardMeanUp:   2 * sim.Millisecond,
		ShardMeanDown: 200 * sim.Microsecond,
	}
}

// ShardChaos layers per-shard crashes on top of the full chaos mix, so shard
// failover runs concurrently with message loss, whole-controller outages,
// context crashes, and SSD errors.
func ShardChaos() Profile {
	p := Chaos()
	p.Name = "shard-chaos"
	p.Description = "chaos + each pool shard crashes ~every 3ms for ~200µs"
	p.ShardMeanUp = 3 * sim.Millisecond
	p.ShardMeanDown = 200 * sim.Microsecond
	return p
}

// PartitionFlap partitions individual link directions between the compute
// node and pool shards (and between shards) roughly every 1 ms of virtual
// time for ~150 µs each, with every endpoint staying up — the pure
// network-partition regime that quorum writes, hinted handoff, and
// read-repair exist for. Directions fail independently, so most outages are
// asymmetric. The cadence is fast enough that even millisecond-scale
// workloads cross at least one outage per link direction.
func PartitionFlap() Profile {
	return Profile{
		Name:         "partition-flap",
		Description:  "each link direction partitions ~every 1ms for ~150µs (endpoints stay up)",
		LinkMeanUp:   sim.Millisecond,
		LinkMeanDown: 150 * sim.Microsecond,
	}
}

// SplitPool opens correlated split-brain windows roughly every 800 µs for
// ~150 µs each: the compute node and even-numbered shards on one side,
// odd-numbered shards on the other, every cut-crossing link down in both
// directions. With R ≥ 2 replicas straddling the cut, every write during a
// split exercises quorum commit plus hinted handoff for the far side.
func SplitPool() Profile {
	return Profile{
		Name:          "split-pool",
		Description:   "split-brain ~every 800µs for ~150µs: odd shards partitioned from compute + even shards",
		SplitMeanUp:   800 * sim.Microsecond,
		SplitMeanDown: 150 * sim.Microsecond,
	}
}

// PartitionChaos layers asymmetric link flaps, split-brain windows, and
// per-shard crashes on top of the full chaos mix, so hinted handoff and
// read-repair run concurrently with failover, message loss, whole-controller
// outages, context crashes, and SSD errors.
func PartitionChaos() Profile {
	p := Chaos()
	p.Name = "partition-chaos"
	p.Description = "chaos + shard crashes + link flaps + split-brain windows"
	p.ShardMeanUp = 3 * sim.Millisecond
	p.ShardMeanDown = 200 * sim.Microsecond
	p.LinkMeanUp = 1500 * sim.Microsecond
	p.LinkMeanDown = 100 * sim.Microsecond
	p.SplitMeanUp = 2 * sim.Millisecond
	p.SplitMeanDown = 120 * sim.Microsecond
	return p
}

// Params renders the profile's active fault knobs on one line, for the CLI
// profile listing. A profile that injects nothing reports "no faults".
func (p Profile) Params() string {
	var parts []string
	if nf := p.Net; nf.DropProb > 0 || nf.CorruptProb > 0 || nf.SpikeProb > 0 {
		s := fmt.Sprintf("net drop=%.3g corrupt=%.3g spike=%.3g", nf.DropProb, nf.CorruptProb, nf.SpikeProb)
		if nf.SpikeProb > 0 {
			s += fmt.Sprintf("×[%v,%v]", sim.Time(nf.SpikeMinNs), sim.Time(nf.SpikeMaxNs))
		}
		parts = append(parts, s)
	}
	if p.PoolMeanUp > 0 {
		parts = append(parts, fmt.Sprintf("pool mean-up=%v mean-down=%v", p.PoolMeanUp, p.PoolMeanDown))
	}
	if p.ShardMeanUp > 0 {
		parts = append(parts, fmt.Sprintf("shard mean-up=%v mean-down=%v", p.ShardMeanUp, p.ShardMeanDown))
	}
	if p.LinkMeanUp > 0 {
		parts = append(parts, fmt.Sprintf("link mean-up=%v mean-down=%v", p.LinkMeanUp, p.LinkMeanDown))
	}
	if p.SplitMeanUp > 0 {
		parts = append(parts, fmt.Sprintf("split mean-up=%v mean-down=%v", p.SplitMeanUp, p.SplitMeanDown))
	}
	if p.CtxCrashProb > 0 {
		parts = append(parts, fmt.Sprintf("ctx-crash=%.3g", p.CtxCrashProb))
	}
	if p.CtxCrashMidProb > 0 {
		parts = append(parts, fmt.Sprintf("ctx-mid-crash=%.3g", p.CtxCrashMidProb))
	}
	if p.SSDReadErrProb > 0 {
		parts = append(parts, fmt.Sprintf("ssd-read-err=%.3g", p.SSDReadErrProb))
	}
	if len(parts) == 0 {
		return "no faults"
	}
	return strings.Join(parts, ", ")
}

// Profiles returns every shipped profile.
func Profiles() []Profile {
	return []Profile{FlakyNet(), CrashyPool(), FlakySSD(), MidCrash(), Chaos(), ShardFlap(), ShardChaos(),
		PartitionFlap(), SplitPool(), PartitionChaos()}
}

// ProfileNames lists the shipped profile names.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ByName resolves a shipped profile. "" and "none" resolve to a zero profile
// that injects nothing.
func ByName(name string) (Profile, error) {
	if name == "" || name == "none" {
		return Profile{Name: "none"}, nil
	}
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (have none, %s)",
		name, strings.Join(ProfileNames(), ", "))
}

// Package fault is the simulator's deterministic chaos layer: a seeded
// schedule of transient network faults (message loss, corruption, latency
// spikes), memory-controller crash/restart epochs, pushdown-context crashes,
// and SSD read errors. Every decision is drawn from sim.RNG streams derived
// from one seed and every induced delay is charged to virtual time, so a
// chaos run is exactly as reproducible as a fault-free one: the same seed
// always yields the same faults, the same recovery actions, and the same
// virtual-time totals.
//
// The plan is consulted from three layers: internal/netmodel retransmits
// dropped/corrupted messages with capped exponential backoff, internal/storage
// re-reads failed SSD pages, and internal/core observes the crash epochs as a
// heartbeat and surfaces ErrMemoryPoolDown / ErrContextCrashed to its
// recovery policy. Because faults only ever add virtual time or force a
// retry/fallback that re-executes work exactly once, workload answers are
// identical to the fault-free run by construction.
package fault

import (
	"fmt"

	"teleport/internal/metrics"
	"teleport/internal/sim"
)

// NetFaults is the fabric's transient-fault behaviour, alike for every
// traffic class.
type NetFaults struct {
	// DropProb is the probability one message (or RPC leg) is lost in
	// flight and must be retransmitted after a timeout.
	DropProb float64
	// CorruptProb is the probability a message arrives but fails its
	// integrity check — same recovery as a drop.
	CorruptProb float64
	// SpikeProb is the probability a message is delayed by a congestion
	// spike of Uniform[SpikeMinNs, SpikeMaxNs] without needing a retry.
	SpikeProb  float64
	SpikeMinNs float64
	SpikeMaxNs float64
}

// Profile is a named fault mix. The zero value injects nothing.
type Profile struct {
	Name        string
	Description string

	// Net holds the transient network faults of every message.
	Net NetFaults

	// PoolMeanUp and PoolMeanDown drive the memory-controller crash
	// schedule: uptime between crashes is Uniform[½·MeanUp, 1½·MeanUp],
	// each outage lasts Uniform[½·MeanDown, 1½·MeanDown]. MeanUp == 0
	// disables crashes.
	PoolMeanUp   sim.Time
	PoolMeanDown sim.Time

	// ShardMeanUp and ShardMeanDown drive the per-shard crash schedules of
	// a sharded memory pool (ddc.Config.PoolShards > 1): each shard gets
	// its own independent schedule with these means, derived from its own
	// RNG stream so the number of shards queried never shifts the
	// whole-controller schedule above. ShardMeanUp == 0 disables per-shard
	// crashes.
	ShardMeanUp   sim.Time
	ShardMeanDown sim.Time

	// LinkMeanUp and LinkMeanDown drive per-directed-link partition
	// schedules between pool endpoints (the compute node and each shard):
	// each ordered (from, to) pair gets its own independent outage
	// schedule with these means, derived from its own RNG stream so
	// querying links never shifts any crash schedule above — and the two
	// directions of a pair fail independently, so partitions are
	// asymmetric (A can reach B while B cannot reach A). LinkMeanUp == 0
	// disables per-link partitions.
	LinkMeanUp   sim.Time
	LinkMeanDown sim.Time

	// SplitMeanUp and SplitMeanDown drive one correlated split-brain
	// schedule: during each split window, every link whose endpoints sit
	// on opposite sides of a fixed parity cut (compute with the
	// even-numbered shards, odd-numbered shards on the far side) is down
	// in both directions. SplitMeanUp == 0 disables splits.
	SplitMeanUp   sim.Time
	SplitMeanDown sim.Time

	// CtxCrashProb is the probability one pushdown's temporary user
	// context crashes before the pushed function commits.
	CtxCrashProb float64

	// CtxCrashMidProb is the probability one pushdown's temporary user
	// context crashes mid-execution — after the pushed function has begun
	// dirtying pages in the memory pool. The runtime rolls the call's undo
	// journal back before reporting the crash, so retries still observe
	// pristine state (see internal/core and DESIGN.md §8).
	CtxCrashMidProb float64

	// SSDReadErrProb is the probability one SSD page read fails and is
	// retried by the device layer.
	SSDReadErrProb float64
}

// Counters tallies every injected fault, by kind. Two runs with the same
// seed and workload must report identical counters.
type Counters struct {
	Drops         int64 `ctr:"fault.drops"`         // messages lost in flight
	Corruptions   int64 `ctr:"fault.corruptions"`   // messages failing integrity checks
	Spikes        int64 `ctr:"fault.spikes"`        // latency spikes applied
	CtxCrashes    int64 `ctr:"fault.ctx-crashes"`   // pushdown context crashes injected (pre-commit)
	CtxMidCrashes int64 `ctr:"fault.ctx-mid-crash"` // mid-execution context crashes armed
	SSDReadErrors int64 `ctr:"fault.ssd-read-errs"` // SSD read errors injected
	PoolWindows   int64 `ctr:"fault.pool-windows"`  // whole-controller crash windows generated so far
	ShardWindows  int64 `ctr:"fault.shard-windows"` // per-shard crash windows generated so far (all shards)
	LinkWindows   int64 `ctr:"fault.link-windows"`  // per-directed-link partition windows generated so far (all links)
	SplitWindows  int64 `ctr:"fault.split-windows"` // correlated split-brain windows generated so far
}

var ledger = metrics.NewLedger(Counters{}, "ctr", "")

// ReadCounters adds the counters to dst under their declared names.
func (c Counters) ReadCounters(dst map[string]int64) { ledger.Read(dst, c) }

// String summarises the counters.
func (c Counters) String() string {
	return fmt.Sprintf("drops=%d corrupt=%d spikes=%d ctx-crashes=%d ctx-mid-crashes=%d ssd-errs=%d crash-windows=%d shard-windows=%d link-windows=%d split-windows=%d",
		c.Drops, c.Corruptions, c.Spikes, c.CtxCrashes, c.CtxMidCrashes, c.SSDReadErrors, c.PoolWindows, c.ShardWindows, c.LinkWindows, c.SplitWindows)
}

// Plan is an instantiated fault schedule. A nil *Plan is inert: every method
// reports "no fault", so call sites need no guards. Methods are not
// synchronised — like the rest of the simulator, they run under the
// single-threaded virtual-time scheduler.
type Plan struct {
	Prof Profile

	// Independent streams per layer, so the number of draws in one layer
	// (say, a retry storm on the fabric) never shifts another layer's
	// schedule. Mid-execution crashes draw from their own stream so that
	// enabling them never shifts the pre-commit crash schedule either.
	net, ctx, ctxMid, ssd *sim.RNG

	// root derives each target's stream on first use; Derive is a pure
	// function of (seed, salt), so a run that never queries a target draws
	// nothing for it and shifts nothing else. scheds holds the schedules per
	// kind, indexed by Target.slot; pinned marks the kinds Pin has touched,
	// so a kind the profile leaves off is still looked up, and pins counts
	// Pin calls (see Pins).
	root   *sim.RNG
	scheds [numKinds][]*schedule
	pinned [numKinds]bool
	pins   int64

	c Counters
}

// NewPlan instantiates prof with the given seed.
func NewPlan(prof Profile, seed int64) *Plan {
	root := sim.NewRNG(seed)
	return &Plan{
		Prof:   prof,
		net:    root.Derive(1),
		ctx:    root.Derive(3),
		ctxMid: root.Derive(5),
		ssd:    root.Derive(4),
		root:   root,
	}
}

// Counters returns the injected-fault tallies so far.
func (p *Plan) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	return p.c
}

// SendFault decides the fate of one message (or RPC) transmission attempt.
// It returns whether the attempt was lost (dropped or corrupted — the caller
// must retransmit after a timeout) and any extra latency to charge for a
// congestion spike.
func (p *Plan) SendFault() (lost bool, extraNs float64) {
	if p == nil {
		return false, 0
	}
	nf := &p.Prof.Net
	if nf.DropProb > 0 && p.net.Bernoulli(nf.DropProb) {
		p.c.Drops++
		return true, 0
	}
	if nf.CorruptProb > 0 && p.net.Bernoulli(nf.CorruptProb) {
		p.c.Corruptions++
		return true, 0
	}
	if nf.SpikeProb > 0 && p.net.Bernoulli(nf.SpikeProb) {
		p.c.Spikes++
		span := nf.SpikeMaxNs - nf.SpikeMinNs
		return false, nf.SpikeMinNs + p.net.Float64()*span
	}
	return false, 0
}

// CtxCrash decides whether one pushdown's temporary context crashes before
// the pushed function commits.
func (p *Plan) CtxCrash() bool {
	if p == nil || p.Prof.CtxCrashProb <= 0 {
		return false
	}
	if p.ctx.Bernoulli(p.Prof.CtxCrashProb) {
		p.c.CtxCrashes++
		return true
	}
	return false
}

// CtxCrashMid decides whether one pushdown's temporary context crashes
// mid-execution, after the pushed function has begun dirtying pages; frac
// in [0,1) positions the crash point within the call (the runtime maps it
// onto a page-access ordinal). A crash armed here may still not fire — the
// function can finish before reaching the crash point — so CtxMidCrashes
// counts armings; the runtime's Rollbacks counter counts actual fires.
func (p *Plan) CtxCrashMid() (frac float64, crash bool) {
	if p == nil || p.Prof.CtxCrashMidProb <= 0 {
		return 0, false
	}
	if !p.ctxMid.Bernoulli(p.Prof.CtxCrashMidProb) {
		return 0, false
	}
	p.c.CtxMidCrashes++
	return p.ctxMid.Float64(), true
}

// SSDReadError decides whether one SSD page read fails.
func (p *Plan) SSDReadError() bool {
	if p == nil || p.Prof.SSDReadErrProb <= 0 {
		return false
	}
	if p.ssd.Bernoulli(p.Prof.SSDReadErrProb) {
		p.c.SSDReadErrors++
		return true
	}
	return false
}

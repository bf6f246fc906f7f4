// Package core implements TELEPORT, the paper's contribution: an OS-level
// compute-pushdown primitive for memory-disaggregated data centers (§3–§4).
//
// A user thread in the compute pool calls Pushdown(fn, opts). The runtime
// ships the call — together with a run-length-encoded list of the pages
// resident in the compute-local cache and their write permissions — to the
// memory pool's controller over one RDMA message, instantiates a temporary
// user context that borrows the caller's page table (vfork-like, §3.2), and
// executes fn next to the data. A MESI-inspired write-invalidate protocol
// (§4.1, Figures 8 and 9) keeps the compute cache and the temporary context
// coherent under the Single-Writer-Multiple-Reader invariant while
// concurrent compute threads keep running. Optional flags select the
// relaxed consistency modes of §4.2 and the strawman synchronisation
// methods the paper ablate in Figures 6 and 20.
package core

import (
	"errors"
	"fmt"

	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/sim"
)

// Flags select synchronisation and consistency behaviour (the syscall's
// third parameter, §3.1).
type Flags uint32

// Flag values.
const (
	// FlagDefault uses the on-demand MESI-style coherence of §4.1.
	FlagDefault Flags = 0

	// FlagPSO relaxes write propagation: when one pool requests write
	// permission, the other pool's copy is downgraded to read-only instead
	// of removed, yielding Partial Store Ordering (§4.2).
	FlagPSO Flags = 1 << iota

	// FlagNoCoherence disables the coherence protocol entirely (§4.2's Weak
	// Ordering relaxation); the application synchronises manually with
	// SyncMem.
	FlagNoCoherence

	// FlagEagerSync is the strawman of §7.5/Figure 20: every resident page
	// is flushed before execution and re-fetched afterwards.
	FlagEagerSync

	// FlagMigrateProcess is the naive approach of §4/Figure 6: migrate the
	// whole process, flushing the entire cache before and leaving it cold
	// after.
	FlagMigrateProcess

	// FlagEvictRanges is Figure 6's per-thread variant: flush and evict
	// only Options.EvictRanges before execution (no online coherence for
	// those pages).
	FlagEvictRanges
)

// relaxedModes are the flags that run a call without the on-demand protocol:
// the Weak Ordering relaxation and the strawmen, which keep only pool
// residency and dirty tracking in the temporary context.
const relaxedModes = FlagNoCoherence | FlagEagerSync | FlagMigrateProcess | FlagEvictRanges

// Range is a contiguous address range, used by SyncMem and FlagEvictRanges.
type Range struct {
	Base mem.Addr
	Size int64
}

// Pages calls f for every page the range overlaps.
func (r Range) Pages(f func(mem.PageID)) {
	if r.Size <= 0 {
		return
	}
	first, last := mem.PageSpan(r.Base, int(r.Size))
	for p := first; p <= last; p++ {
		f(p)
	}
}

// Options says how one pushdown call synchronises; the limits on the call
// are the Runtime's Policy.
type Options struct {
	Flags Flags

	// EvictRanges lists the address ranges owned by the pushed computation
	// for FlagEvictRanges.
	EvictRanges []Range
}

// Stats breaks one pushdown call into the six components of §7.5
// (Figure 19), plus protocol counters.
type Stats struct {
	PreSync    sim.Time // (1) pre-pushdown synchronisation
	Request    sim.Time // (2) request transfer over RDMA
	Queue      sim.Time // workqueue wait (part of (3) in the paper's accounting)
	CtxSetup   sim.Time // (3) temporary user context setup
	Exec       sim.Time // (4) function execution, including online sync
	OnlineSync sim.Time // (4b) the online-sync share of Exec
	Response   sim.Time // (5) response transfer
	PostSync   sim.Time // (6) post-pushdown synchronisation

	ResidentPages int // compute-resident pages at call time
	RLERuns       int // runs after §6's run-length encoding
	RequestBytes  int // request message size (RLE or bitmap list, whichever is smaller)
}

// Total returns the call's end-to-end latency.
func (s Stats) Total() sim.Time {
	return s.PreSync + s.Request + s.Queue + s.CtxSetup + s.Exec + s.Response + s.PostSync
}

// Overhead returns the latency excluding the user function itself, the
// quantity Figure 20 plots.
func (s Stats) Overhead() sim.Time { return s.Total() - (s.Exec - s.OnlineSync) }

// String summarises the breakdown.
func (s Stats) String() string {
	return fmt.Sprintf("pre=%v req=%v queue=%v setup=%v exec=%v (sync=%v) resp=%v post=%v",
		s.PreSync, s.Request, s.Queue, s.CtxSetup, s.Exec, s.OnlineSync, s.Response, s.PostSync)
}

// RuntimeStats aggregates protocol activity across calls; a snapshot exports
// the tagged fields, under the tag's name.
type RuntimeStats struct {
	Calls         int64 `ctr:"push.calls"` // pushdown attempts completed, whatever their outcome
	ComputeFaults int64 // compute-pool faults handled during pushdowns
	Upgrades      int64 // compute write-upgrades that needed coherence
	CoherenceMsgs int64
	Contentions   int64

	// CoherenceRounds counts the protocol's own round trips (a contention's
	// extra one is not). Not part of the run report's schema.
	CoherenceRounds int64 `ctr:"coherence.rounds" json:"-"`

	// Failure/recovery counters (§3.2 failure handling).
	PoolDownObserved   int64 // heartbeat observations that found the pool down
	ShardDownObserved  int64 `ctr:"push.shard-down"`    // pushdowns shed because a resident page's replica set was unreachable
	QuorumLostObserved int64 `ctr:"push.quorum-lost"`   // pushdowns shed because a resident page was below its write quorum
	QuorumAborts       int64 `ctr:"push.quorum-aborts"` // executing pushdowns aborted (and rolled back) by partition onset
	CtxCrashes         int64 `ctr:"push.ctx-crashes"`   // temporary-context crashes injected (pre-commit + mid-execution)
	Retries            int64 `ctr:"push.retries"`       // pushdown re-attempts by the recovery policy
	LocalFallbacks     int64 `ctr:"push.fallbacks"`     // pushdowns degraded to compute-side execution

	// Crash-consistency and overload counters.
	DeadlineAborts       int64 `ctr:"push.deadline-aborts"` // calls aborted for blowing their Policy.Deadline budget
	Rollbacks            int64 `ctr:"push.rollbacks"`       // undo-journal rollbacks performed (mid-crash, deadline and quorum-loss aborts)
	RolledBackPages      int64 // pages restored across all rollbacks
	BreakerOpens         int64 `ctr:"push.breaker.opens"`          // circuit-breaker closed/half-open → open transitions
	BreakerHalfOpens     int64 `ctr:"push.breaker.half-opens"`     // open → half-open transitions (cooldown elapsed)
	BreakerCloses        int64 `ctr:"push.breaker.closes"`         // half-open → closed transitions (probe succeeded)
	BreakerShortCircuits int64 `ctr:"push.breaker.short-circuits"` // calls sent straight to local execution while open

	// Phases sums every call's time breakdown (the eight sim.Time fields of
	// its Stats; the per-call counters stay zero), so a run-level report
	// can break pushdown time down without retaining every call.
	Phases Stats
}

var ledger = metrics.NewLedger(RuntimeStats{}, "ctr", "")

// addPhases folds one call's time breakdown into the sums.
func (s *Stats) addPhases(c *Stats) {
	s.PreSync += c.PreSync
	s.Request += c.Request
	s.Queue += c.Queue
	s.CtxSetup += c.CtxSetup
	s.Exec += c.Exec
	s.OnlineSync += c.OnlineSync
	s.Response += c.Response
	s.PostSync += c.PostSync
}

// Errors returned by Pushdown.
var (
	// ErrMemoryPoolDown reports heartbeat loss to the memory pool: a crash
	// epoch of the machine's fault plan observed during the call. The pushed
	// function has NOT run when this is returned — the crash was detected
	// before execution committed — so retrying or falling back to local
	// execution is safe.
	ErrMemoryPoolDown = errors.New("teleport: memory pool unreachable (heartbeat lost)")

	// ErrContextCrashed reports that the temporary user context crashed in
	// the memory pool before the pushed function committed (injected by the
	// machine's fault plan) — either before fn started, or mid-execution
	// after fn dirtied pages, in which case the controller rolled the
	// call's undo journal back before reporting the crash. Either way the
	// pool state is as if fn never ran; PushdownWithPolicy re-runs a
	// context-crashed pushdown once before degrading to local execution.
	ErrContextCrashed = errors.New("teleport: pushdown context crashed in the memory pool")

	// ErrDeadlineExceeded reports that the call blew its Policy.Deadline
	// budget. A request still queued at its deadline was cancelled there
	// (§3.2's try_cancel); if execution had already dirtied pages, the undo
	// journal was rolled back before this error was reported. Either way
	// the pool state is as if fn never ran and retrying or falling back is
	// safe.
	ErrDeadlineExceeded = errors.New("teleport: pushdown deadline budget exceeded")

	// ErrShardDown reports that a pushdown's resident pages include one
	// whose entire replica set — primary shard plus every backup — is down
	// in a sharded memory pool, so the pool cannot serve the call's working
	// set. The pushed function has NOT run; PushdownWithPolicy waits
	// for the earliest shard restart and retries before degrading to local
	// execution. Like every sentinel here it must be matched with
	// errors.Is, never ==.
	ErrShardDown = errors.New("teleport: memory-pool shard down (no live replica)")

	// ErrQuorumLost reports that a pushdown's resident pages include one
	// with fewer than WriteQuorum replicas reachable from the compute
	// node — crashed shards or partitioned links — so the call's writes
	// could not commit. If execution had already dirtied pages when the
	// partition hit, the undo journal was rolled back before this error
	// was reported, so retrying is safe; PushdownWithPolicy waits
	// for the earliest scheduled link heal, mirroring ErrShardDown. Must
	// be matched with errors.Is, never ==.
	ErrQuorumLost = errors.New("teleport: write quorum unreachable (partitioned replicas)")

	// ErrNotDisaggregated reports a pushdown on a monolithic machine.
	ErrNotDisaggregated = errors.New("teleport: pushdown requires a disaggregated machine")
)

// Recoverable reports whether a pushdown error is safe to retry or absorb
// with a compute-side fallback: the pushed function is guaranteed to have
// had no observable effect — either it never ran (heartbeat loss, a
// deadline that passed while queued or in set-up, pre-commit context crash)
// or its partial writes were rolled back from the undo journal before the
// error was reported (mid-execution crash, deadline or quorum abort).
// RemoteError does not qualify: the function panicked, and its effects
// stand. The recoverable sentinels are exactly those the failures table
// accounts.
func Recoverable(err error) bool {
	for i := range failures {
		if errors.Is(err, failures[i].err) {
			return true
		}
	}
	return false
}

// RemoteError wraps a panic thrown by the pushed function; it is rethrown
// to the caller just like the C++ exception tunnelling of §3.2.
type RemoteError struct {
	Value any
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("teleport: pushed function panicked: %v", e.Value)
}

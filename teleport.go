// Package teleport is a from-scratch reproduction of "Optimizing
// Data-intensive Systems in Disaggregated Data Centers with TELEPORT"
// (SIGMOD 2022): an OS-level compute-pushdown primitive for
// memory-disaggregated data centers, together with the disaggregated-OS
// substrate it runs on and the three data-intensive systems the paper
// optimises (a columnar DBMS, a gather-apply-scatter graph engine, and a
// shared-memory MapReduce).
//
// This root package is the facade: it re-exports the simulator's core types
// and provides the platform constructors. The typical flow is
//
//	m := teleport.NewDDCMachine(1 << 30)            // compute cache bound
//	p := m.NewProcess()                             // space lives in the memory pool
//	rt := teleport.NewRuntime(p, 1)                 // the TELEPORT instance pair
//	th := teleport.NewThread("worker")
//	stats, err := rt.Pushdown(th, func(env *teleport.Env) {
//	    // runs in the memory pool, next to the data
//	}, teleport.Options{})
//
// Everything is deterministic: time is virtual (see internal/sim), so runs
// are bit-for-bit reproducible. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package teleport

import (
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// Re-exported core types. These are aliases, so values flow freely between
// the facade and the internal packages.
type (
	// Machine is one (possibly disaggregated) machine.
	Machine = ddc.Machine
	// MachineConfig selects and parameterises a platform.
	MachineConfig = ddc.Config
	// HWConfig is the hardware cost model.
	HWConfig = hw.Config
	// Process is a user process whose address space lives in the memory pool.
	Process = ddc.Process
	// Env is a simulated thread's execution environment; all data access
	// goes through it.
	Env = ddc.Env
	// Runtime is the TELEPORT instance pair of one process.
	Runtime = core.Runtime
	// Options configures one pushdown call.
	Options = core.Options
	// Stats is the per-call breakdown (Figure 19's components).
	Stats = core.Stats
	// Flags select coherence/synchronisation behaviour.
	Flags = core.Flags
	// Range is an address range for SyncMem / eviction hints.
	Range = core.Range
	// Thread is a simulated thread with a virtual clock.
	Thread = sim.Thread
	// Scheduler interleaves simulated threads in virtual-time order.
	Scheduler = sim.Scheduler
	// Time is virtual nanoseconds.
	Time = sim.Time
	// Addr is a virtual address in a process's space.
	Addr = mem.Addr
)

// Re-exported pushdown flags (§3.1's flags parameter and §4.2's
// relaxations).
const (
	FlagDefault        = core.FlagDefault
	FlagPSO            = core.FlagPSO
	FlagNoCoherence    = core.FlagNoCoherence
	FlagEagerSync      = core.FlagEagerSync
	FlagMigrateProcess = core.FlagMigrateProcess
	FlagEvictRanges    = core.FlagEvictRanges
)

// Re-exported errors.
var (
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	ErrMemoryPoolDown   = core.ErrMemoryPoolDown
	ErrNotDisaggregated = core.ErrNotDisaggregated
)

// PageSize is the simulator's page size (4 KB).
const PageSize = mem.PageSize

// NewLocalMachine returns a monolithic server with unlimited DRAM (the
// paper's local-execution reference).
func NewLocalMachine() *Machine {
	return ddc.MustMachine(ddc.Linux())
}

// NewLinuxSSDMachine returns a monolithic server whose DRAM is capped at
// localMemBytes, swapping to a modelled NVMe SSD.
func NewLinuxSSDMachine(localMemBytes int64) *Machine {
	return ddc.MustMachine(ddc.LinuxSSD(localMemBytes))
}

// NewDDCMachine returns a disaggregated machine (LegoOS-style base DDC)
// whose compute-local cache is bounded to cacheBytes.
func NewDDCMachine(cacheBytes int64) *Machine {
	return ddc.MustMachine(ddc.BaseDDC(cacheBytes))
}

// NewMachine builds a machine from an explicit configuration.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	return ddc.NewMachine(cfg)
}

// Testbed returns the paper's hardware parameters (§7).
func Testbed() HWConfig { return hw.Testbed() }

// NewRuntime returns a TELEPORT runtime for p with the given number of
// memory-pool user contexts (§3.2).
func NewRuntime(p *Process, contexts int) *Runtime {
	return core.NewRuntime(p, contexts)
}

// NewThread returns a standalone simulated thread.
func NewThread(name string) *Thread { return sim.NewThread(name) }

// NewScheduler returns a virtual-time scheduler for multi-threaded
// simulations.
func NewScheduler() *Scheduler { return sim.NewScheduler() }

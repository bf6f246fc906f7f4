// Package hw defines the hardware cost model for the simulated disaggregated
// data center: CPU clocks per resource pool, DRAM access costs, the RDMA
// fabric, and the NVMe SSD. The default values mirror the paper's testbed
// (§7: Xeon E5-2630L compute nodes, ConnectX-3 / EDR InfiniBand at 56 Gbps
// and 1.2 µs latency, a 3 GB/s / 600K-IOPS NVMe SSD).
package hw

import "teleport/internal/mem"

// Config holds every tunable hardware parameter. The zero value is not
// usable; start from Testbed() and override.
type Config struct {
	// CPU clocks, in GHz. One abstract "operation" costs 1/clock ns, so a
	// 2.1 GHz core executes 2.1 abstract ops per nanosecond. §7.3 throttles
	// MemoryClockGHz to emulate a weak memory-pool controller.
	ComputeClockGHz float64
	MemoryClockGHz  float64

	// MemoryPoolCores is the number of physical cores the memory pool
	// dedicates to pushdown user contexts (§7.3 uses two).
	MemoryPoolCores int

	// DRAM. A random access that misses the last-touched line pays
	// DRAMRandNs; sequential accesses within or adjacent to the last line
	// pay DRAMSeqLineNs per new 64-byte line (hardware prefetch). Lines
	// recently touched by the same core hit the modelled L2/LLC instead
	// (CacheHitNs per access, CacheLines capacity, direct-mapped).
	// DRAMLineBytes is a power of two no larger than a page, so lines tile
	// pages; CacheLines is 0 (no cache) or a power of two, so a line's
	// cache index is a mask.
	DRAMRandNs    float64
	DRAMSeqLineNs float64
	DRAMLineBytes int
	CacheHitNs    float64
	CacheLines    int

	// Fabric (RDMA). A message costs NetLatencyNs + bytes/NetBandwidthGBs.
	// NetHandlerNs is the controller-side processing cost per RPC.
	NetLatencyNs    float64
	NetBandwidthGBs float64
	NetHandlerNs    float64

	// FaultHandleNs is the software cost of one remote page fault beyond
	// the raw network time: trap, splitkernel fault handling on both
	// sides, page-table update, TLB work. Calibrated so a 4 KB remote
	// fault lands at ≈6.5 µs end to end, LegoOS's reported latency.
	FaultHandleNs float64

	// SSD. Random 4 KB reads/writes pay the latency; sequential pages pay
	// bandwidth only (detected by consecutive page IDs).
	SSDRandReadNs  float64
	SSDRandWriteNs float64
	SSDSeqGBs      float64

	// CtxSwitchNs is the cost of a context switch in the memory pool,
	// charged when more user contexts are runnable than physical cores
	// (§7.3, Figure 17).
	CtxSwitchNs float64

	// PTEVisitOps is the per-entry CPU cost (in abstract operations, so it
	// scales with the local clock) of cloning/checking a page-table entry
	// during temporary-context setup (§7.5 shows this dominating on-demand
	// sync's setup phase).
	PTEVisitOps float64

	// PageListEntryOps is the compute-side CPU cost of gathering one
	// resident page entry before RLE encoding (§6).
	PageListEntryOps float64
}

// Testbed returns the paper's hardware configuration (§7 experimental
// setup). All experiments start from this and override what they sweep.
func Testbed() Config {
	return Config{
		ComputeClockGHz: 2.1,
		MemoryClockGHz:  2.1,
		MemoryPoolCores: 2,

		DRAMRandNs:    90,  // uncached DRAM access
		DRAMSeqLineNs: 4.5, // streaming: ~14 GB/s per core
		DRAMLineBytes: 64,
		CacheHitNs:    3,    // on-chip cache hit
		CacheLines:    8192, // 512 KB of modelled L2/LLC per core

		NetLatencyNs:    1200, // 1.2 µs EDR InfiniBand
		NetBandwidthGBs: 7.0,  // 56 Gb/s
		NetHandlerNs:    400,  // LITE-style kernel RPC handling
		FaultHandleNs:   2900, // trap + splitkernel handlers + TLB

		SSDRandReadNs:  90e3, // sync 4 KB random read on NVMe flash
		SSDRandWriteNs: 30e3,
		SSDSeqGBs:      3.0,

		CtxSwitchNs:      2000,
		PTEVisitOps:      38, // ≈18 ns per entry at 2.1 GHz
		PageListEntryOps: 12,
	}
}

// OpNs returns the cost in nanoseconds of n abstract CPU operations at the
// given clock.
func OpNs(clockGHz, n float64) float64 {
	if clockGHz <= 0 {
		panic("hw: non-positive clock")
	}
	return n / clockGHz
}

// MsgNs returns the fabric cost of a single message of the given size.
func (c *Config) MsgNs(bytes int) float64 {
	return c.NetLatencyNs + float64(bytes)/c.NetBandwidthGBs
}

// RoundTripNs returns the cost of a request/response pair including the
// remote handler.
func (c *Config) RoundTripNs(reqBytes, respBytes int) float64 {
	return c.MsgNs(reqBytes) + c.NetHandlerNs + c.MsgNs(respBytes)
}

// Validate reports obviously broken configurations early.
func (c *Config) Validate() error {
	switch {
	case c.ComputeClockGHz <= 0 || c.MemoryClockGHz <= 0:
		return errConfig("CPU clock must be positive")
	case c.MemoryPoolCores <= 0:
		return errConfig("MemoryPoolCores must be positive")
	case c.NetBandwidthGBs <= 0 || c.SSDSeqGBs <= 0:
		return errConfig("bandwidth must be positive")
	case !powerOfTwo(c.DRAMLineBytes) || c.DRAMLineBytes > mem.PageSize:
		return errConfig("DRAMLineBytes must be a power of two no larger than a page")
	case c.CacheLines != 0 && !powerOfTwo(c.CacheLines):
		return errConfig("CacheLines must be 0 or a power of two")
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

type errConfig string

func (e errConfig) Error() string { return "hw: invalid config: " + string(e) }

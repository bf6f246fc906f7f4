// Package ddc implements the disaggregated operating system substrate the
// paper builds on (§2.1, LegoOS-style): a compute pool whose local memory is
// nothing more than a page cache, a memory pool holding the process's entire
// address space behind a controller, and a storage pool the memory pool
// spills to. The same Machine, differently configured, also models the
// monolithic-Linux baselines (with and without an SSD swap path), so every
// experiment compares platforms that differ only in configuration.
//
// Application data lives as real bytes in a mem.Space; the ddc layer decides
// what every access costs (DRAM, fabric round trips, SSD paging) and
// maintains the residency/permission state that TELEPORT's coherence
// protocol (internal/core) manipulates during pushdown.
package ddc

import "teleport/internal/hw"

// Config selects a platform.
type Config struct {
	// HW is the hardware cost model.
	HW hw.Config

	// Disaggregated selects the DDC platforms. When false the machine is a
	// monolithic server.
	Disaggregated bool

	// CacheBytes bounds the compute place's memory, a page cache over a
	// slower tier: on a DDC the compute pool's local cache over the memory
	// pool (the paper uses 1 GB), on a monolithic server its DRAM, which
	// swaps to the local SSD (the "Linux with NVMe SSD" baseline of Figures
	// 1a, 14, 15). Zero means unlimited, which Validate rejects for
	// disaggregated configs.
	CacheBytes int64

	// MemoryPoolBytes bounds the memory pool's DRAM; pages beyond it spill
	// to the storage pool (Figure 15 sweeps this). Zero means unlimited.
	MemoryPoolBytes int64

	// PrefetchDepth is the number of extra sequential pages the base DDC
	// fetches per miss, modelling LegoOS's caching/prefetching
	// optimisations (§1). Zero disables prefetch.
	PrefetchDepth int

	// PoolShards splits the memory pool across this many controllers, each
	// an independent crash domain under the fault plan's per-shard
	// schedules; pages stripe across shards by page ID (page mod K). 0 or 1
	// keeps the single-controller pool. Only meaningful when Disaggregated.
	PoolShards int

	// Replicas keeps every page on this many distinct shards — its primary
	// plus R−1 backups, written synchronously (Machine.ReplicatePage) — so
	// reads fail over to a live replica during a single-shard outage. 0 or
	// 1 disables replication. Requires Replicas ≤ PoolShards and ≤ 64.
	Replicas int

	// WriteQuorum is W, the number of replica acks a write needs before it
	// commits. A write that cannot reach a replica (shard crashed, or the
	// link to it partitioned) enqueues a deterministic hinted-handoff
	// record instead, and stalls only when fewer than W copies are
	// reachable. 0 or 1 keeps the legacy synchronous fan-out, which never
	// stalls (unreachable replicas are journalled for re-sync). Requires
	// W ≤ Replicas. A failover read consults R′ = R − W + 1 replicas when
	// W > 1, so its consult set meets every committed write's ack set.
	WriteQuorum int
}

// Linux returns a monolithic server with unlimited local memory (the paper's
// "Local execution" reference).
func Linux() Config {
	return Config{HW: hw.Testbed()}
}

// LinuxSSD returns a monolithic server whose DRAM is capped at localMem
// bytes, spilling to the NVMe SSD.
func LinuxSSD(localMem int64) Config {
	c := Linux()
	c.CacheBytes = localMem
	return c
}

// BaseDDC returns the disaggregated platform with the given compute-local
// cache, standing in for LegoOS.
func BaseDDC(cacheBytes int64) Config {
	return Config{
		HW:            hw.Testbed(),
		Disaggregated: true,
		CacheBytes:    cacheBytes,
		PrefetchDepth: 2,
	}
}

// Validate rejects nonsensical configurations.
func (c *Config) Validate() error {
	if err := c.HW.Validate(); err != nil {
		return err
	}
	if c.Disaggregated && c.CacheBytes <= 0 {
		return errConfig("disaggregated machine needs a finite compute cache")
	}
	if !c.Disaggregated && c.MemoryPoolBytes != 0 {
		return errConfig("pool sizes apply only to disaggregated machines")
	}
	if c.PoolShards < 0 || c.Replicas < 0 {
		return errConfig("pool shards and replicas cannot be negative")
	}
	if !c.Disaggregated && (c.PoolShards > 1 || c.Replicas > 1) {
		return errConfig("pool shards and replicas apply only to disaggregated machines")
	}
	if c.Replicas > 1 && c.Replicas > c.PoolShards {
		return errConfig("replicas cannot exceed pool shards")
	}
	if c.WriteQuorum < 0 {
		return errConfig("write quorum cannot be negative")
	}
	if !c.Disaggregated && c.WriteQuorum > 1 {
		return errConfig("write quorum applies only to disaggregated machines")
	}
	if c.Replicas > 64 {
		return errConfig("replicas cannot exceed 64")
	}
	if c.WriteQuorum > 1 {
		if c.Replicas <= 1 {
			return errConfig("write quorum requires replication (Replicas > 1)")
		}
		if c.WriteQuorum > c.Replicas {
			return errConfig("write quorum cannot exceed replicas")
		}
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "ddc: invalid config: " + string(e) }

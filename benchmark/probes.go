package main

import (
	"fmt"
	"runtime"

	"teleport/internal/bench"
	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/obs"
	"teleport/internal/profile"
	"teleport/internal/sim"
	"teleport/internal/storage"
	"teleport/internal/tpch"
	"teleport/internal/trace"
)

// A probe is a tight loop over one exported call of one layer. It sets up,
// times n operations itself (set-up is outside its clock reads) and returns
// the raw nanoseconds and how many operations they cover.
type probe struct {
	metric string
	n      int // operations per batch
	fn     func(n int) (rawNs int64, ops int64)
}

// unitCost repeats the probe's batches until their timed parts have lasted
// probeNs and returns the median batch's normalised nanoseconds per operation
// (a batch lasts a few to a few tens of milliseconds; the median sheds the
// ones a neighbour disturbed).
func (h *harness) unitCost(p probe) float64 {
	h.kLast = 0
	k0 := h.kernelBefore()
	runtime.GC()
	var total int64
	var perOp []float64
	for total < h.sz.probeNs {
		raw, ops := p.fn(p.n)
		total += raw
		if ops > 0 {
			perOp = append(perOp, float64(raw)/float64(ops))
		}
	}
	k1 := h.kernelAfter()
	// normalise maps raw ns to normalised seconds; scale back to ns.
	return h.k.normalise(1e9, k0, k1) * median(perOp)
}

// timed returns fn's wall nanoseconds.
func timed(fn func()) int64 {
	t0 := nowNs()
	fn()
	return nowNs() - t0
}

var probeSink uint64

const probeBytes = 1 << 20

// localEnv is an Env over resident memory on the monolithic platform, with
// a warmed buffer: the hit path every operator reduces to.
func localEnv() (*ddc.Env, mem.Addr) {
	p := ddc.MustMachine(ddc.Linux()).NewProcess()
	env := p.NewEnv(sim.NewThread("probe"))
	a := p.Space.Alloc(probeBytes, "buf")
	for off := mem.Addr(0); off < probeBytes; off += 8 {
		env.WriteU64(a+off, uint64(off))
	}
	return env, a
}

// residentRuns is a resident-page list of pages pages in runs of mixed
// length and permission, as a fragmented cache produces.
func residentRuns(pages int) []netmodel.PageRun {
	var runs []netmodel.PageRun
	start := uint64(1000)
	for left, i := pages, 0; left > 0; i++ {
		n := 1 + i%9
		if n > left {
			n = left
		}
		runs = append(runs, netmodel.PageRun{Start: start, Count: uint32(n), Writable: i%3 == 0})
		start += uint64(n) + 1 + uint64(i%4)
		left -= n
	}
	return runs
}

// pushProbe times Pushdown calls against a cache holding resident dirty
// pages; each call touches one word of touch pages, writing when write.
func pushProbe(metric string, resident, touch int, write bool) probe {
	return probe{metric: metric, n: 200, fn: func(n int) (int64, int64) {
		m := ddc.MustMachine(ddc.BaseDDC(int64(resident) * mem.PageSize))
		p := m.NewProcess()
		rt := core.NewRuntime(p, 1)
		a := p.Space.AllocPages(int64(resident)*mem.PageSize, "v")
		th := sim.NewThread("probe")
		env := p.NewEnv(th)
		for pg := 0; pg < resident; pg++ {
			env.WriteI64(a+mem.Addr(pg)*mem.PageSize, 1)
		}
		body := func(env *ddc.Env) {
			for pg := 0; pg < touch; pg++ {
				addr := a + mem.Addr(pg)*mem.PageSize
				if write {
					env.WriteI64(addr, env.ReadI64(addr)+1)
				} else {
					probeSink += uint64(env.ReadI64(addr))
				}
			}
		}
		return timed(func() {
			for i := 0; i < n; i++ {
				if _, err := rt.Pushdown(th, body, core.Options{}); err != nil {
					panic(err)
				}
				if write {
					// The compute side takes the pages back, so that the
					// next call invalidates and journals them again.
					for pg := 0; pg < touch; pg++ {
						env.WriteI64(a+mem.Addr(pg)*mem.PageSize, 1)
					}
				}
			}
		}), int64(n)
	}}
}

// fabricProbe times one Fabric call on a fresh fabric, with the flaky-net
// plan attached when plan is set.
func fabricProbe(metric string, plan bool, call func(f *netmodel.Fabric, t *sim.Thread)) probe {
	return probe{metric: metric, n: 100000, fn: func(n int) (int64, int64) {
		cfg := hw.Testbed()
		f := netmodel.New(&cfg)
		if plan {
			f.SetInjector(fault.NewPlan(fault.FlakyNet(), 1))
		}
		t := sim.NewThread("probe")
		return timed(func() {
			for i := 0; i < n; i++ {
				call(f, t)
			}
		}), int64(n)
	}}
}

func sendPage(f *netmodel.Fabric, t *sim.Thread) { f.Send(t, mem.PageSize, netmodel.ClassPageFault) }

// coldbProbe times one operator over rows rows on resident memory. Every
// call builds a fresh process: the operators allocate their outputs in the
// address space and nothing frees them.
func coldbProbe(metric string, op func(env *ddc.Env, keys, vals *coldb.Column) func()) probe {
	const rows = 100000
	return probe{metric: metric, n: 4, fn: func(n int) (int64, int64) {
		p := ddc.MustMachine(ddc.Linux()).NewProcess()
		env := p.NewEnv(sim.NewThread("probe"))
		keys := coldb.NewColumn(p, "k", coldb.I64, rows)
		vals := coldb.NewColumn(p, "v", coldb.F64, rows)
		ks, vs := make([]int64, rows), make([]float64, rows)
		x := uint64(1)
		for i := range ks {
			x = x*lcgMul + 1
			ks[i], vs[i] = int64(x>>40)%1000, float64(i)
		}
		keys.LoadI64(p, ks)
		vals.LoadF64(p, vs)
		run := op(env, keys, vals)
		return timed(func() {
			for i := 0; i < n; i++ {
				run()
			}
		}), int64(n) * rows
	}}
}

// probes lists every unit-cost loop, layer by layer.
func probes() []probe {
	return []probe{
		// sim
		{metric: "sim.switch_ns", n: 200000, fn: func(n int) (int64, int64) {
			s := sim.NewScheduler()
			s.SetQuantum(0)
			for i := 0; i < 2; i++ {
				s.Spawn("t", 0, func(th *sim.Thread) {
					for k := 0; k < n/2; k++ {
						th.Advance(sim.Microsecond)
					}
				})
			}
			return timed(func() { s.Run() }), s.Switches()
		}},
		{metric: "sim.skipahead_ns", n: 2000000, fn: func(n int) (int64, int64) {
			s := sim.NewScheduler()
			s.SetQuantum(0)
			s.Spawn("solo", 0, func(th *sim.Thread) {
				for k := 0; k < n; k++ {
					th.Advance(sim.Microsecond)
				}
			})
			return timed(func() { s.Run() }), int64(n)
		}},
		{metric: "sim.window_ns_d16", n: 20000, fn: func(n int) (int64, int64) {
			// 16 domains advancing 1 µs at a time under a 100 µs
			// lookahead: n/100 windows, each a barrier over all domains.
			s := sim.NewScheduler()
			s.SetQuantum(0)
			s.SetLookahead(100 * sim.Microsecond)
			s.SetWorkers(runtime.NumCPU())
			for i := 0; i < 16; i++ {
				s.NewDomain(fmt.Sprintf("m%d", i)).Spawn("c", 0, func(th *sim.Thread) {
					for k := 0; k < n; k++ {
						th.Advance(sim.Microsecond)
					}
				})
			}
			return timed(func() { s.Run() }), int64(n / 100)
		}},

		// mem
		{metric: "mem.pt_lookup_ns", n: 1000000, fn: func(n int) (int64, int64) {
			pt := mem.NewPageTable()
			for pg := mem.PageID(0); pg < 4096; pg++ {
				pt.Ensure(pg)
			}
			return timed(func() {
				for i := 0; i < n; i++ {
					if pte, ok := pt.Lookup(mem.PageID(i & 4095)); ok && pte.Dirty {
						probeSink++
					}
				}
			}), int64(n)
		}},
		{metric: "mem.space_read_ns", n: 1000000, fn: func(n int) (int64, int64) {
			s := mem.NewSpace()
			a := s.Alloc(probeBytes, "buf")
			for off := mem.Addr(0); off < probeBytes; off += 8 {
				s.WriteU64(a+off, uint64(off))
			}
			return timed(func() {
				for i := 0; i < n; i++ {
					probeSink ^= s.ReadU64(a + mem.Addr(i*8&(probeBytes-1)))
				}
			}), int64(n)
		}},
		{metric: "mem.snapshot_page_ns", n: 100000, fn: func(n int) (int64, int64) {
			s := mem.NewSpace()
			pg := mem.PageOf(s.AllocPages(mem.PageSize, "page"))
			s.Frame(pg)
			buf := make([]byte, mem.PageSize)
			return timed(func() {
				for i := 0; i < n; i++ {
					buf = s.SnapshotPageInto(pg, buf)
				}
			}), int64(n)
		}},

		// ddc
		{metric: "ddc.read_hit_ns", n: 1000000, fn: func(n int) (int64, int64) {
			env, a := localEnv()
			return timed(func() {
				for i := 0; i < n; i++ {
					probeSink ^= env.ReadU64(a + mem.Addr(i*8&(probeBytes-1)))
				}
			}), int64(n)
		}},
		{metric: "ddc.read_batched_ns", n: 1000000, fn: func(n int) (int64, int64) {
			env, a := localEnv()
			var buf [64]uint64
			return timed(func() {
				for i := 0; i < n; i += len(buf) {
					env.ReadU64s(a+mem.Addr(i*8&(probeBytes-1)), buf[:])
				}
			}), int64(n)
		}},
		{metric: "ddc.write_hit_ns", n: 1000000, fn: func(n int) (int64, int64) {
			env, a := localEnv()
			return timed(func() {
				for i := 0; i < n; i++ {
					env.WriteU64(a+mem.Addr(i*8&(probeBytes-1)), uint64(i))
				}
			}), int64(n)
		}},
		{metric: "ddc.read_miss_ns", n: 100000, fn: func(n int) (int64, int64) {
			// Random reads of 8 MB through a 128-page cache: 94% miss.
			const size = 8 << 20
			p := ddc.MustMachine(ddc.BaseDDC(128 * mem.PageSize)).NewProcess()
			env := p.NewEnv(sim.NewThread("probe"))
			a := p.Space.AllocPages(size, "buf")
			x := uint64(1)
			return timed(func() {
				for i := 0; i < n; i++ {
					x = x*lcgMul + 1
					probeSink ^= env.ReadU64(a + mem.Addr((x>>11)%(size/8))*8)
				}
			}), int64(n)
		}},
		{metric: "ddc.read_bytes_ns_per_kb", n: 100000, fn: func(n int) (int64, int64) {
			env, a := localEnv()
			buf := make([]byte, 1024)
			return timed(func() {
				for i := 0; i < n; i++ {
					env.ReadBytes(a+mem.Addr(i*1024&(probeBytes-1)), buf)
				}
			}), int64(n)
		}},
		{metric: "ddc.shard.access_ns", n: 200000, fn: func(n int) (int64, int64) {
			cfg := ddc.BaseDDC(1 << 20)
			cfg.PoolShards, cfg.Replicas, cfg.WriteQuorum = 4, 3, 2
			m := ddc.MustMachine(cfg)
			t := sim.NewThread("probe")
			return timed(func() {
				for i := 0; i < n; i++ {
					probeSink += uint64(m.AccessPage(t, mem.PageID(i&1023), i&7 == 0))
				}
			}), int64(n)
		}},

		// netmodel
		fabricProbe("netmodel.send_ns", false, sendPage),
		fabricProbe("netmodel.roundtrip_ns", false, func(f *netmodel.Fabric, t *sim.Thread) {
			f.RoundTrip(t, 64, mem.PageSize, netmodel.ClassPageFault)
		}),
		{metric: "netmodel.resident_marshal_ns", n: 2000, fn: func(n int) (int64, int64) {
			runs := residentRuns(pushCachePages)
			return timed(func() {
				for i := 0; i < n; i++ {
					probeSink += uint64(len(netmodel.MarshalResident(runs)))
				}
			}), int64(n)
		}},
		{metric: "netmodel.request_marshal_ns", n: 2000, fn: func(n int) (int64, int64) {
			req := &netmodel.PushdownRequest{Fn: 1, Arg: 2, ArgInline: make([]byte, 32), Resident: residentRuns(pushCachePages)}
			return timed(func() {
				for i := 0; i < n; i++ {
					buf, err := req.Marshal()
					if err != nil {
						panic(err)
					}
					probeSink += uint64(len(buf))
				}
			}), int64(n)
		}},

		// storage
		{metric: "storage.read_page_ns", n: 200000, fn: func(n int) (int64, int64) {
			cfg := hw.Testbed()
			d := storage.New(&cfg, mem.PageSize)
			t := sim.NewThread("probe")
			x := uint64(1)
			return timed(func() {
				for i := 0; i < n; i++ {
					x = x*lcgMul + 1
					d.ReadPage(t, x>>44)
				}
			}), int64(n)
		}},

		// core
		pushProbe("core.push_ro_ns", 64, 1, false),
		pushProbe("core.push_ro_1500_ns", pushCachePages, 1, false),
		pushProbe("core.push_rw_ns", 64, 16, true),
		{metric: "core.syncmem_ns_per_page", n: 200, fn: func(n int) (int64, int64) {
			// Each iteration dirties 64 resident pages (a write hit each)
			// and flushes them in one SyncMem.
			const pages = 64
			p := ddc.MustMachine(ddc.BaseDDC(256 * mem.PageSize)).NewProcess()
			rt := core.NewRuntime(p, 1)
			a := p.Space.AllocPages(pages*mem.PageSize, "v")
			th := sim.NewThread("probe")
			env := p.NewEnv(th)
			ranges := []core.Range{{Base: a, Size: pages * mem.PageSize}}
			return timed(func() {
				for i := 0; i < n; i++ {
					for pg := 0; pg < pages; pg++ {
						env.WriteI64(a+mem.Addr(pg)*mem.PageSize, int64(i))
					}
					if got := rt.SyncMem(th, ranges); got != pages {
						panic(fmt.Sprintf("syncmem flushed %d pages, want %d", got, pages))
					}
				}
			}), int64(n) * pages
		}},

		// coldb
		coldbProbe("coldb.select_ns_per_row", func(env *ddc.Env, keys, _ *coldb.Column) func() {
			return func() { coldb.SelectI64(env, keys, coldb.PredI64{Op: coldb.CmpLT, Lo: 100}, nil) }
		}),
		coldbProbe("coldb.hashprobe_ns_per_row", func(env *ddc.Env, keys, _ *coldb.Column) func() {
			dim := coldb.NewColumn(env.P, "dim", coldb.I64, 1000)
			ids := make([]int64, 1000)
			for i := range ids {
				ids[i] = int64(i)
			}
			dim.LoadI64(env.P, ids)
			idx := coldb.BuildHashIndex(env, dim, nil)
			return func() { coldb.HashJoinProbe(env, idx, keys, nil) }
		}),
		coldbProbe("coldb.groupby_ns_per_row", func(env *ddc.Env, keys, vals *coldb.Column) func() {
			return func() { coldb.GroupBySum(env, keys, vals, nil, 1024) }
		}),
	}
}

// runProbes runs every probe plus the composite ones and returns the
// per-layer metrics they feed.
func (h *harness) runProbes() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range probes() {
		out[p.metric] = h.unitCost(p)
	}

	// fault: what consulting a fault plan adds to one send.
	with := h.unitCost(fabricProbe("", true, sendPage))
	out["fault.send_overhead_ns"] = with - out["netmodel.send_ns"]

	// sim.Domain: the same multi-machine run drained by one worker and by
	// one per core (up to 8).
	cs := h.sz.cluster
	clusterS := func(workers int) float64 {
		opts := bench.Options{Scale: cs.scale / 2, Seed: h.seed, CacheFrac: 0.02, SimWorkers: workers}
		return h.freshRegion(func() {
			if _, err := bench.RunCluster(opts, cs.machines, cs.rounds); err != nil {
				panic(err)
			}
		})
	}
	seq, par := clusterS(1), clusterS(simWorkers())
	out["sim.domain.seq_s"], out["sim.domain.par_s"] = seq, par
	if par > 0 {
		out["sim.domain.par_speedup"] = seq / par
	}

	// metrics/trace/obs: Q9 on teleport with an event ring, a registry and
	// profiling attached, against the same run with nothing attached.
	q9 := func(attach bool) (float64, int64) {
		m := ddc.MustMachine(ddc.BaseDDC(1 << 20))
		if attach {
			m.AttachTrace(trace.New(1 << 18))
			m.AttachMetrics(metrics.NewRegistry())
		}
		p := m.NewProcess()
		d := tpch.Load(coldb.NewDB(p), tpch.Config{Scale: h.sz.olapScale, Seed: h.seed})
		p.ResizeCache(boundedBytes(p.Space.Allocated(), 0.02))
		th := sim.NewThread("Q9")
		ex := profile.NewExec(th, p, core.NewRuntime(p, 1))
		ex.Push(q9Push...)
		norm := h.freshRegion(func() {
			tpch.Q9(ex, d, tpch.GreenPart)
			if attach {
				obs.BuildProfile(m.Trace.Events(), m.Trace.Dropped())
			}
		})
		return norm, int64(ex.Total())
	}
	offS, offVirt := q9(false)
	onS, onVirt := q9(true)
	if offS > 0 {
		out["obs.attached_overhead"] = onS / offS
	}
	if onVirt == offVirt {
		out["obs.virt_identical"] = 1
	}
	return out
}

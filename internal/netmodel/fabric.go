// Package netmodel models the data center fabric that connects resource
// pools: an RDMA-like network with per-message latency, bandwidth-
// proportional transfer time, a LITE-style RPC handler cost, FIFO ordering,
// and per-class message accounting. It also implements the run-length
// encoding of resident-page lists that TELEPORT uses to fit the pushdown
// request into a single RDMA message (§6), and — when a fault injector is
// attached — transparent recovery from transient message loss/corruption by
// retransmission with capped exponential backoff, all charged to virtual
// time.
package netmodel

import (
	"fmt"

	"teleport/internal/hw"
	"teleport/internal/metrics"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Class labels traffic so experiments can report, e.g., the number of
// coherence messages (Figure 22) separately from page-fault traffic.
type Class int

// Traffic classes.
const (
	ClassPageFault Class = iota // demand paging compute←memory
	ClassWriteback              // dirty page eviction compute→memory
	ClassCoherence              // invalidations/downgrades during pushdown
	ClassPushdown               // pushdown request/response RPCs
	ClassStorage                // memory pool ↔ storage pool paging
	ClassSync                   // syncmem / eager synchronization transfers
	ClassReplica                // shard replication + recovery re-sync transfers
	numClasses
)

var classNames = [numClasses]string{
	"pagefault", "writeback", "coherence", "pushdown", "storage", "sync", "replica",
}

// String returns the class name.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// A fabric span's Arg is its class, which indexes the wire components and
// histograms metrics declares in class order: a drift fails to compile.
var _ = [1]struct{}{}[int(ClassReplica)+int(metrics.CompWirePageFault)-int(metrics.CompWireReplica)]
var _ = [1]struct{}{}[int(ClassReplica)+int(metrics.HistNetPageFault)-int(metrics.HistNetReplica)]

// Stat is a per-class counter set: delivered traffic plus the transient
// faults survived getting it there. A snapshot exports the traffic per class
// ("net.<class>.msgs") and the faults summed over the classes.
type Stat struct {
	Msgs  int64 `per:"msgs"`
	Bytes int64 `per:"bytes"`
	// Retries counts retransmissions, one per lost attempt: the last
	// attempt draws no fault, so every loss is retransmitted.
	Retries int64 `ctr:"fabric.retries"`
}

var (
	totalLedger  = metrics.NewLedger(Stat{}, "ctr", "")
	classLedgers = func() (l [numClasses]metrics.Ledger) {
		for c := range l {
			l[c] = metrics.NewLedger(Stat{}, "per", "net."+classNames[c]+".")
		}
		return l
	}()
)

// Injector decides transient-fault outcomes for transmission attempts. It is
// implemented by *fault.Plan.
type Injector interface {
	// SendFault returns whether one transmission attempt was lost
	// (retransmit needed) and any extra latency in ns.
	SendFault() (lost bool, extraNs float64)
}

// Retransmission policy: the first retry waits roughly a detection timeout
// (a few network RTTs), doubling up to the cap. Eight attempts at ~1%
// injected loss makes an unrecoverable loss astronomically unlikely; if the
// cap is ever hit the transport delivers anyway (it is reliable — the
// injector models transient faults, not partitions).
const (
	maxSendAttempts  = 8
	retryBackoffCap  = 64
	retryBackoffRTTs = 4
)

// Fabric is the shared network connecting the pools of one machine. All
// methods charge virtual time to the calling simulated thread; because the
// scheduler runs one simulated thread at a time, no locking is needed.
type Fabric struct {
	cfg   *hw.Config
	stats [numClasses]Stat
	inj   Injector
	obs   *trace.Tracer // nil-safe
}

// New returns a fabric using the given hardware parameters.
func New(cfg *hw.Config) *Fabric { return &Fabric{cfg: cfg} }

// SetInjector attaches (or detaches, with nil) a transient-fault injector.
func (f *Fabric) SetInjector(inj Injector) { f.inj = inj }

// SetObserver attaches the machine's tracer: every Send/RoundTrip is an "rpc"
// span (Arg: class) whose duration is the class's wire time, and injected
// faults and retransmissions are instant events.
func (f *Fabric) SetObserver(tr *trace.Tracer) { f.obs = tr }

// MinLatency returns the fabric's minimum cross-machine message latency:
// the per-message wire latency before any payload, queueing, or fault
// charges. It is the conservative lookahead bound for parallel multi-domain
// simulation (sim.Scheduler.SetLookahead) — no message between machines on
// this fabric can arrive sooner than MinLatency after it was sent.
func (f *Fabric) MinLatency() sim.Time { return sim.FromNs(f.cfg.NetLatencyNs) }

// Send models a one-way message of the given size: latency + transfer time,
// charged to t, plus any injected transient faults and their retransmissions.
// It returns what it charged.
func (f *Fabric) Send(t *sim.Thread, bytes int, class Class) sim.Time {
	return f.transmit(t, class, f.cfg.MsgNs(bytes), bytes)
}

// RoundTrip models a request/response RPC including remote handler
// processing, charged to t. With an injector attached, a fault on either leg
// retransmits the whole RPC after a backoff (the requester cannot tell which
// leg died).
func (f *Fabric) RoundTrip(t *sim.Thread, reqBytes, respBytes int, class Class) {
	f.transmit(t, class, f.cfg.RoundTripNs(reqBytes, respBytes), reqBytes, respBytes)
}

// transmit is one operation under its "rpc" span: a message per entry of
// legs, costing ns in all, retransmitted whole while the injector loses a leg.
func (f *Fabric) transmit(t *sim.Thread, class Class, ns float64, legs ...int) sim.Time {
	sp := f.obs.Begin(t, trace.KindRPC, 0, int64(class))
	backoff := retryBackoffRTTs * f.cfg.NetLatencyNs
	for attempt := 1; ; attempt++ {
		for _, bytes := range legs {
			f.stats[class].Msgs++
			f.stats[class].Bytes += int64(bytes)
		}
		t.AdvanceNs(ns)
		if f.inj == nil || attempt == maxSendAttempts {
			break
		}
		lost, extraNs := false, 0.0
		for range legs {
			l, e := f.inj.SendFault()
			lost, extraNs = lost || l, extraNs+e
		}
		if extraNs > 0 {
			f.obs.Instant(t, trace.KindFaultInjected, 0, int64(class))
			t.AdvanceNs(extraNs)
		}
		if !lost {
			break
		}
		// Lost in flight: wait out the detection timeout and retransmit.
		f.stats[class].Retries++
		f.obs.Instant(t, trace.KindRPCRetry, 0, int64(class))
		t.AdvanceNs(backoff)
		if backoff < retryBackoffCap*f.cfg.NetLatencyNs {
			backoff *= 2
		}
	}
	return f.obs.End(t, sp)
}

// ReadCounters adds the fabric's counters to dst under their declared names.
func (f *Fabric) ReadCounters(dst map[string]int64) {
	for c := range f.stats {
		classLedgers[c].Read(dst, &f.stats[c])
	}
	totalLedger.Read(dst, f.Total())
}

// Stats returns the counters for one class.
func (f *Fabric) Stats(class Class) Stat { return f.stats[class] }

// Total returns the aggregate counters across all classes.
func (f *Fabric) Total() Stat { return metrics.Sum(f.stats[:]) }

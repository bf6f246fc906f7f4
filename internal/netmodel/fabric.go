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

// Comp maps the class to its attribution component. The metrics package
// declares its wire components in class order, which compCheck pins.
func (c Class) Comp() metrics.Comp { return metrics.CompWirePageFault + metrics.Comp(c) }

// compCheck fails to compile if the wire components drift out of alignment
// with the traffic classes.
var _ = [1]struct{}{}[int(ClassReplica)+int(metrics.CompWirePageFault)-int(metrics.CompWireReplica)]

// Stat is a per-class counter set: delivered traffic plus the transient
// faults survived getting it there.
type Stat struct {
	Msgs  int64
	Bytes int64
	// Retries counts retransmissions performed after a lost or corrupted
	// transmission attempt; Drops counts the lost attempts themselves.
	// They differ only if the retry cap is hit (the attempt is then
	// treated as delivered by the reliable transport).
	Retries int64
	Drops   int64
}

// Injector decides transient-fault outcomes for transmission attempts. It is
// implemented by *fault.Plan; netmodel sees classes as plain ints to keep
// the dependency one-way.
type Injector interface {
	// SendFault returns whether one transmission attempt of the given
	// class was lost (retransmit needed) and any extra latency in ns.
	SendFault(class int) (lost bool, extraNs float64)
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
	ring  *trace.Ring
	times *metrics.TimeSet // machine-wide wire-time attribution (nil-safe)
	tr    *trace.Tracer    // span layer (nil = spans off)
	mx    [numClasses]fabricMetrics
}

// fabricMetrics caches one class's registry handles (all nil-safe).
type fabricMetrics struct {
	msgs, bytes *metrics.Counter
	ns          *metrics.Histogram
}

// New returns a fabric using the given hardware parameters.
func New(cfg *hw.Config) *Fabric { return &Fabric{cfg: cfg} }

// SetInjector attaches (or detaches, with nil) a transient-fault injector.
func (f *Fabric) SetInjector(inj Injector) { f.inj = inj }

// SetTrace attaches an event ring that receives fault-injected/rpc-retry
// events (nil-safe, like the ring itself).
func (f *Fabric) SetTrace(r *trace.Ring) { f.ring = r }

// SetTracer attaches a span tracer: every Send/RoundTrip becomes an "rpc"
// span (Arg: class), nesting under whatever operation issued it.
func (f *Fabric) SetTracer(tr *trace.Tracer) { f.tr = tr }

// SetTimes attaches the machine-wide attribution accumulator; each
// operation's elapsed virtual time is charged to its class's wire component.
func (f *Fabric) SetTimes(ts *metrics.TimeSet) { f.times = ts }

// SetMetrics attaches (or detaches, with nil) a metrics registry and caches
// the per-class handles.
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	for c := Class(0); c < numClasses; c++ {
		if reg == nil {
			f.mx[c] = fabricMetrics{}
			continue
		}
		name := "net." + c.String()
		f.mx[c] = fabricMetrics{
			msgs:  reg.Counter(name + ".msgs"),
			bytes: reg.Counter(name + ".bytes"),
			ns:    reg.Histogram(name + ".ns"),
		}
	}
}

// MinLatency returns the fabric's minimum cross-machine message latency:
// the per-message wire latency before any payload, queueing, or fault
// charges. It is the conservative lookahead bound for parallel multi-domain
// simulation (sim.Scheduler.SetLookahead) — no message between machines on
// this fabric can arrive sooner than MinLatency after it was sent.
func (f *Fabric) MinLatency() sim.Time { return sim.FromNs(f.cfg.NetLatencyNs) }

// Send models a one-way message of the given size: latency + transfer time,
// charged to t, plus any injected transient faults and their retransmissions.
func (f *Fabric) Send(t *sim.Thread, bytes int, class Class) {
	start := t.Now()
	sp := f.tr.Begin(t, trace.KindRPC, 0, int64(class))
	f.send(t, bytes, class)
	f.tr.End(t, sp)
	f.observe(t, class, start)
}

// observe attributes one completed operation's elapsed time.
func (f *Fabric) observe(t *sim.Thread, class Class, start sim.Time) {
	f.times.Add(class.Comp(), t.Now()-start)
	f.mx[class].ns.Observe(t.Now() - start)
}

func (f *Fabric) send(t *sim.Thread, bytes int, class Class) {
	f.count(class, bytes)
	t.AdvanceNs(f.cfg.MsgNs(bytes))
	if f.inj == nil {
		return
	}
	backoff := retryBackoffRTTs * f.cfg.NetLatencyNs
	for attempt := 1; attempt < maxSendAttempts; attempt++ {
		lost, extraNs := f.inj.SendFault(int(class))
		if extraNs > 0 {
			f.ring.Add(trace.Event{At: t.Now(), Kind: trace.KindFaultInjected, Arg: int64(class), Who: t.Name()})
			t.AdvanceNs(extraNs)
		}
		if !lost {
			return
		}
		// Lost in flight: wait out the detection timeout and retransmit.
		f.stats[class].Drops++
		f.stats[class].Retries++
		f.ring.Add(trace.Event{At: t.Now(), Kind: trace.KindRPCRetry, Arg: int64(class), Who: t.Name()})
		t.AdvanceNs(backoff)
		if backoff < retryBackoffCap*f.cfg.NetLatencyNs {
			backoff *= 2
		}
		f.count(class, bytes)
		t.AdvanceNs(f.cfg.MsgNs(bytes))
	}
}

// RoundTrip models a request/response RPC including remote handler
// processing, charged to t. With an injector attached, a fault on either leg
// retransmits the whole RPC after a backoff (the requester cannot tell which
// leg died).
func (f *Fabric) RoundTrip(t *sim.Thread, reqBytes, respBytes int, class Class) {
	start := t.Now()
	sp := f.tr.Begin(t, trace.KindRPC, 0, int64(class))
	f.roundTrip(t, reqBytes, respBytes, class)
	f.tr.End(t, sp)
	f.observe(t, class, start)
}

func (f *Fabric) roundTrip(t *sim.Thread, reqBytes, respBytes int, class Class) {
	f.count(class, reqBytes)
	f.count(class, respBytes)
	t.AdvanceNs(f.cfg.RoundTripNs(reqBytes, respBytes))
	if f.inj == nil {
		return
	}
	backoff := retryBackoffRTTs * f.cfg.NetLatencyNs
	for attempt := 1; attempt < maxSendAttempts; attempt++ {
		reqLost, reqExtra := f.inj.SendFault(int(class))
		respLost, respExtra := f.inj.SendFault(int(class))
		if extra := reqExtra + respExtra; extra > 0 {
			f.ring.Add(trace.Event{At: t.Now(), Kind: trace.KindFaultInjected, Arg: int64(class), Who: t.Name()})
			t.AdvanceNs(extra)
		}
		if !reqLost && !respLost {
			return
		}
		f.stats[class].Drops++
		f.stats[class].Retries++
		f.ring.Add(trace.Event{At: t.Now(), Kind: trace.KindRPCRetry, Arg: int64(class), Who: t.Name()})
		t.AdvanceNs(backoff)
		if backoff < retryBackoffCap*f.cfg.NetLatencyNs {
			backoff *= 2
		}
		f.count(class, reqBytes)
		f.count(class, respBytes)
		t.AdvanceNs(f.cfg.RoundTripNs(reqBytes, respBytes))
	}
}

func (f *Fabric) count(class Class, bytes int) {
	f.stats[class].Msgs++
	f.stats[class].Bytes += int64(bytes)
	f.mx[class].msgs.Inc()
	f.mx[class].bytes.Add(int64(bytes))
}

// Stats returns the counters for one class.
func (f *Fabric) Stats(class Class) Stat { return f.stats[class] }

// Total returns the aggregate counters across all classes.
func (f *Fabric) Total() Stat {
	var s Stat
	for _, st := range f.stats {
		s.Msgs += st.Msgs
		s.Bytes += st.Bytes
		s.Retries += st.Retries
		s.Drops += st.Drops
	}
	return s
}

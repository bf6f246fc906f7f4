// Package trace is the simulator's qualitative observability layer: a
// bounded, allocation-light event ring that the paging, coherence, and
// pushdown paths publish into, plus a span layer (Tracer) that records
// begin/end intervals with parentage — a page fault nesting its recursive
// storage fault nesting its SSD read, a pushdown nesting its queue, setup,
// and execution phases. It answers "what actually happened and where the
// virtual time went" questions without perturbing the virtual clock
// (tracing costs no simulated time), and exports to Chrome trace-event
// JSON for Perfetto (WriteChromeTrace).
package trace

import (
	"fmt"
	"io"

	"teleport/internal/sim"
)

// Kind classifies events.
type Kind uint8

// Event kinds.
const (
	KindRemoteFault  Kind = iota // compute pool demand-fetched a page
	KindStorageFault             // memory pool faulted to the storage pool
	KindWriteback                // dirty page written back
	KindCoherence                // invalidation/downgrade message
	KindEviction
	KindSync          // syncmem / eager / migration flush
	KindFaultInjected // chaos layer injected a fault (Arg: fault detail)
	KindRPCRetry      // fabric retransmitted a lost/corrupted message
	KindPoolCrash     // heartbeat observed the memory controller down
	KindPoolRecover   // heartbeat observed the memory controller back up
	KindFallbackLocal // recovery policy ran a pushdown in the compute pool

	// Crash-consistency and overload events.
	KindPushRollback    // undo journal rolled back after a mid-execution abort (Arg: pages restored)
	KindBreakerOpen     // circuit breaker opened (consecutive recoverable failures)
	KindBreakerHalfOpen // breaker cooldown elapsed; one probe allowed through
	KindBreakerClose    // probe succeeded; breaker closed

	// Span kinds recorded by the Tracer (begin/end pairs).
	KindRPC           // one fabric Send/RoundTrip (Arg: traffic class)
	KindSSDRead       // one device page-in
	KindSSDWrite      // one device page-out
	KindPushdown      // one whole pushdown call, failed ones too (Arg: call id)
	KindPushQueue     // workqueue wait inside a pushdown
	KindPushSetup     // temporary-context setup inside a pushdown
	KindPushExec      // pushed-function execution inside a pushdown
	KindPushSync      // pre (Arg 0) / post (Arg 1) pushdown synchronisation
	KindPushRetryWait // recovery-policy backoff between pushdown attempts

	// Sharded-pool fault-domain events.
	KindShardDown        // pushdown shed: a resident page's whole replica set is down
	KindFailover         // span: a page access served by a replica while its primary shard is down
	KindShardRecover     // span: re-sync journal replayed on a recovered shard (Page: shard, Arg: pages)
	KindHintedHandoff    // quorum write enqueued a handoff record for an unreachable replica (Arg: target shard)
	KindReadRepair       // span: failover read detected a stale copy and repaired it from the freshest reachable replica
	KindShardAntiEntropy // span: anti-entropy sweep delivered hinted-handoff records over a healed link (Page: shard, Arg: pages)
	numKinds
)

var kindNames = [numKinds]string{
	"remote-fault", "storage-fault", "writeback", "coherence",
	"eviction", "sync",
	"fault-injected", "rpc-retry", "pool-crash", "pool-recover",
	"fallback-local",
	"push-rollback", "breaker-open", "breaker-half", "breaker-close",
	"rpc", "ssd-read", "ssd-write", "pushdown", "push-queue",
	"push-setup", "push-exec", "push-sync", "push-retry-wait",
	"shard-down", "failover", "shard-recover",
	"hinted-handoff", "read-repair", "shard-anti-entropy",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Phase distinguishes instantaneous events from span endpoints.
type Phase uint8

// Phases.
const (
	PhaseInstant Phase = iota // a point event (the pre-span trace model)
	PhaseBegin                // a span opened (Span/Parent are set)
	PhaseEnd                  // a span closed (Span is set)
)

// String renders the phase marker used by Dump.
func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	default:
		return "."
	}
}

// Event is one trace record: an instant, or one endpoint of a span.
type Event struct {
	At     sim.Time
	Kind   Kind
	Phase  Phase
	Span   uint64 // span id (begin/end events; 0 for instants)
	Parent uint64 // enclosing span id at begin time (0 = root)
	Page   uint64 // page id where applicable
	Arg    int64  // kind-specific detail (bytes, write flag, call id, ...)
	Who    string // thread name
}

// String renders the event.
func (e Event) String() string {
	return fmt.Sprintf("%12v %s %-14s page=%-8d arg=%-6d %s", e.At, e.Phase, e.Kind, e.Page, e.Arg, e.Who)
}

// Flag encodes a boolean detail (write, dirty) as an event's Arg.
func Flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Ring is a fixed-capacity event buffer. The zero value is disabled; attach
// one with New. Methods are not synchronised — the virtual-time scheduler
// runs one simulated thread at a time, which is the only writer model the
// simulator has.
type Ring struct {
	events []Event
	next   int
	total  uint64

	// observer, when non-nil, sees every event immediately after it lands
	// in the ring — the hook the flight recorder (internal/obs) uses to
	// trip on degrade-class events with the retained window still warm.
	// Observation is passive: the observer must not advance virtual time.
	observer func(Event)
}

// New returns a ring holding the last capacity events.
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{events: make([]Event, 0, capacity)}
}

// Add records an event (no-op on a nil ring, so call sites need no guards).
func (r *Ring) Add(e Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, e)
	} else {
		r.events[r.next] = e
		r.next = (r.next + 1) % cap(r.events)
	}
	if r.observer != nil {
		r.observer(e)
	}
}

// SetObserver installs (or, with nil, removes) a per-event callback, invoked
// after each Add with the event just recorded. Observers must be passive:
// they may read the ring but never advance a virtual clock.
func (r *Ring) SetObserver(fn func(Event)) {
	if r == nil {
		return
	}
	r.observer = fn
}

// Dropped returns how many events were overwritten by ring wraparound
// (total recorded − retained). Non-zero means the retained window is a
// suffix of the run, not the whole story.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(len(r.events))
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// CountByKind tallies retained events. A span counts once (its begin
// endpoint); end endpoints are skipped so converting an instant event into a
// begin/end span pair does not change its count.
func (r *Ring) CountByKind() map[Kind]int {
	if r == nil {
		return make(map[Kind]int)
	}
	m := make(map[Kind]int)
	for _, e := range r.Events() {
		if e.Phase == PhaseEnd {
			continue
		}
		m[e.Kind]++
	}
	return m
}

// Dump writes a ring's retained events (Events, oldest first) to w, one per
// line behind indent. When the ring wrapped (dropped = Dropped() > 0) it leads
// with a "# dropped N events" line so a partial trace is never mistaken for a
// complete one.
func Dump(w io.Writer, indent string, events []Event, dropped uint64) {
	if dropped > 0 {
		fmt.Fprintf(w, "%s# dropped %d events\n", indent, dropped)
	}
	for _, e := range events {
		fmt.Fprintf(w, "%s%v\n", indent, e)
	}
}

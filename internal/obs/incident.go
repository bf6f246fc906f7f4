package obs

import (
	"encoding/json"
	"io"

	"teleport/internal/metrics"
	"teleport/internal/trace"
)

// DegradeEvent reports whether k is a degrade-class event — one of the
// moments a cluster operator asks "what happened right before this?": an
// undo-journal rollback, a circuit-breaker trip, a replica-set outage, or a
// pushdown degraded to compute-side execution.
func DegradeEvent(k trace.Kind) bool {
	switch k {
	case trace.KindPushRollback, trace.KindBreakerOpen, trace.KindShardDown,
		trace.KindFallbackLocal:
		return true
	}
	return false
}

// IncidentEvent is one trace event inside an incident record, flattened to
// strings so the JSONL is self-describing without the trace package's enums.
type IncidentEvent struct {
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Phase  string `json:"phase"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Page   uint64 `json:"page,omitempty"`
	Arg    int64  `json:"arg,omitempty"`
	Who    string `json:"who"`
}

// Incident is one flight-recorder record: the degrade-class event that
// tripped it, the last-N trace events leading up to (and including) it, and
// the named-counter delta since the previous incident (or since the run
// started, for the first).
type Incident struct {
	Seq  int    `json:"seq"` // 1-based trigger ordinal across the run
	AtNs int64  `json:"at_ns"`
	Kind string `json:"kind"`
	Who  string `json:"who"`
	Page uint64 `json:"page,omitempty"`
	Arg  int64  `json:"arg,omitempty"`

	// Delta holds every named counter that moved since the previous
	// incident. encoding/json sorts the keys, so marshalled incidents are
	// deterministic.
	Delta map[string]int64 `json:"delta,omitempty"`

	Events []IncidentEvent `json:"events"`
}

// DefaultIncidentEvents is the trace-window size per incident of a run's
// flight recorder.
const DefaultIncidentEvents = 64

// DefaultMaxIncidents bounds retained incidents; like a hardware flight
// recorder the newest overwrite the oldest, and Total() keeps the true
// trigger count.
const DefaultMaxIncidents = 256

// Recorder is the forensic flight recorder. Install it on a trace ring with
// ring.SetObserver(rec.Observe); every degrade-class event then snapshots
// the ring's tail and the counter delta. A nil Recorder is inert, matching
// the substrate's nil-safe contract.
type Recorder struct {
	ring    *trace.Ring
	lastN   int
	maxKept int
	read    func(*metrics.Snapshot)

	prev      map[string]int64
	incidents []Incident
	total     int
}

// NewRecorder builds a flight recorder over ring. lastN bounds the trace
// window per incident; read, which may be nil, is the ledger walk whose
// counters are diffed into each incident's delta.
func NewRecorder(ring *trace.Ring, lastN int, read func(*metrics.Snapshot)) *Recorder {
	return &Recorder{ring: ring, lastN: lastN, maxKept: DefaultMaxIncidents, read: read}
}

// Observe is the ring-observer hook: called for every trace event, it
// records an incident when the event is degrade-class. Spans trigger on
// their begin endpoint only, so one degradation is one incident. Passive by
// construction — it reads the ring and counters but never advances a clock.
func (rc *Recorder) Observe(e trace.Event) {
	if rc == nil || e.Phase == trace.PhaseEnd || !DegradeEvent(e.Kind) {
		return
	}
	rc.total++
	inc := Incident{
		Seq:  rc.total,
		AtNs: int64(e.At),
		Kind: e.Kind.String(),
		Who:  e.Who,
		Page: e.Page,
		Arg:  e.Arg,
	}
	if rc.read != nil {
		cur := metrics.NewSnapshot()
		rc.read(cur)
		inc.Delta = counterDelta(rc.prev, cur.Counters)
		rc.prev = cur.Counters
	}
	events := rc.ring.Events()
	if len(events) > rc.lastN {
		events = events[len(events)-rc.lastN:]
	}
	inc.Events = make([]IncidentEvent, len(events))
	for i, ev := range events {
		inc.Events[i] = IncidentEvent{
			AtNs: int64(ev.At), Kind: ev.Kind.String(), Phase: ev.Phase.String(),
			Span: ev.Span, Parent: ev.Parent, Page: ev.Page, Arg: ev.Arg, Who: ev.Who,
		}
	}
	if len(rc.incidents) >= rc.maxKept {
		// Flight-recorder semantics: keep the most recent window.
		copy(rc.incidents, rc.incidents[1:])
		rc.incidents = rc.incidents[:len(rc.incidents)-1]
	}
	rc.incidents = append(rc.incidents, inc)
}

// counterDelta returns the keys of cur that changed relative to prev (all of
// cur when prev is nil and the value is non-zero). Map-to-map, so iteration
// order cannot leak; marshalling sorts the keys.
func counterDelta(prev, cur map[string]int64) map[string]int64 {
	if len(cur) == 0 {
		return nil
	}
	delta := make(map[string]int64)
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			delta[k] = d
		}
	}
	if len(delta) == 0 {
		return nil
	}
	return delta
}

// Incidents returns the retained incident records, oldest first.
func (rc *Recorder) Incidents() []Incident {
	if rc == nil {
		return nil
	}
	return append([]Incident(nil), rc.incidents...)
}

// Total returns how many incidents ever triggered (retained or not).
func (rc *Recorder) Total() int {
	if rc == nil {
		return 0
	}
	return rc.total
}

// WriteIncidentsJSONL writes incident records as one compact JSON object per
// line — the dump format behind -incident-out. Byte-identical across
// same-seed runs: field order is fixed and map keys marshal sorted.
func WriteIncidentsJSONL(w io.Writer, incidents []Incident) error {
	for i := range incidents {
		b, err := json.Marshal(&incidents[i])
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Package metrics is the simulator's quantitative observability layer. It
// keeps no counter of its own: an event is counted once, in the typed stats
// struct of the layer it happens in, and a Ledger reads those fields out
// under the names their tags declare (ledger.go). What it holds is time — the
// attribution TimeSet (attr.go) and a Registry of fixed-bucket virtual-time
// histograms, both fed by a closing trace span (internal/trace). Recording
// is passive — it never advances a virtual clock — and every handle is
// nil-safe, so call sites need no guards. Snapshots marshal with sorted
// keys: two same-seed runs produce byte-identical JSON.
package metrics

import (
	"encoding/json"
	"io"
	"sort"

	"teleport/internal/sim"
)

// Histogram is a fixed-bucket histogram of virtual durations. An observation
// lands in the first bucket whose upper bound (in nanoseconds, inclusive) is
// ≥ the value; anything beyond the last bound lands in the overflow bucket.
type Histogram struct {
	counts [len(latencyBuckets) + 1]int64 // one per bound, last is overflow
	sum    int64
	n      int64
	min    int64 // smallest observation (valid when n > 0)
	max    int64 // largest observation (valid when n > 0)
}

// Observe records one duration (no-op on nil). The bucket scan is a binary
// search: this runs on every latency observation on the hot paging paths.
func (h *Histogram) Observe(d sim.Time) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.n++
	h.sum += ns
	if h.n == 1 || ns < h.min {
		h.min = ns
	}
	if h.n == 1 || ns > h.max {
		h.max = ns
	}
	h.counts[sort.Search(len(latencyBuckets), func(i int) bool { return latencyBuckets[i] >= ns })]++
}

// latencyBuckets is the ladder of upper bounds every histogram uses: 1-2-5
// per decade from 100 ns, then 1 s.
var latencyBuckets = [...]int64{
	100, 200, 500, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
	1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
}

// Hist identifies one of the fixed histograms: an operation class whose
// duration a closing span (or, for the two span-less ones, their one call
// site) feeds. The wire histograms mirror netmodel's classes in order.
type Hist int

// Fixed histograms. NoHist marks a span kind that feeds none.
const (
	NoHist           Hist = iota - 1
	HistNetPageFault      // net.<class>.ns: one fabric Send/RoundTrip of the class
	HistNetWriteback
	HistNetCoherence
	HistNetPushdown
	HistNetStorage
	HistNetSync
	HistNetReplica
	HistSSDRead     // one device page-in
	HistSSDWrite    // one device page-out
	HistFaultRemote // one compute-pool demand fetch, end to end
	HistPoolStall   // one wait for a crashed memory controller (span-less)
	HistPushQueue   // workqueue wait of one pushdown attempt
	HistPushExec    // pushed-function execution of one attempt
	HistPushTotal   // one pushdown attempt, end to end
	HistPushE2E     // one policy call: every attempt, backoff and fallback (span-less)
	NumHists
)

var histNames = [NumHists]string{
	"net.pagefault.ns", "net.writeback.ns", "net.coherence.ns", "net.pushdown.ns",
	"net.storage.ns", "net.sync.ns", "net.replica.ns",
	"ssd.read.ns", "ssd.write.ns", "fault.remote.ns", "pool.stall.ns",
	"push.queue.ns", "push.exec.ns", "push.total.ns", "push.e2e.ns",
}

// Registry holds a run's histograms: the fixed ones, indexed by Hist so the
// hot paths reach theirs without a name lookup, and the per-operator ones
// ("op.<name>.ns") by name. A nil *Registry is the disabled state: every
// accessor returns a nil handle whose methods are no-ops. Not synchronised —
// the virtual-time scheduler runs one simulated thread at a time.
type Registry struct {
	fixed [NumHists]Histogram
	named map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{named: make(map[string]*Histogram)} }

// Hist returns the fixed histogram h (nil on a nil registry or NoHist).
func (r *Registry) Hist(h Hist) *Histogram {
	if r == nil || h < 0 {
		return nil
	}
	return &r.fixed[h]
}

// Histogram returns the named histogram, creating it on first use (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.named[name]
	if !ok {
		h = &Histogram{}
		r.named[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	BoundsNs []int64 `json:"bounds_ns"`
	Counts   []int64 `json:"counts"` // len(BoundsNs)+1; last is overflow
	Count    int64   `json:"count"`
	SumNs    int64   `json:"sum_ns"`
	MinNs    int64   `json:"min_ns"` // valid when Count > 0
	MaxNs    int64   `json:"max_ns"` // valid when Count > 0
}

// Snapshot is a point-in-time copy of a run's metrics: the counters and
// gauges read off the layers' typed stats, and the registry's histograms.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// NewSnapshot returns an empty snapshot for the layers' readers to fill.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]int64, 128),
		Gauges:     make(map[string]int64, 2),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// Snapshot copies the registry's histograms into a fresh snapshot whose
// counters and gauges are still to be read (nil registry → nil).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := NewSnapshot()
	for i := range r.fixed {
		// An idle wire class is still listed — which classes carried nothing
		// is part of the picture — the others appear once observed.
		if h := &r.fixed[i]; h.n > 0 || Hist(i) <= HistNetReplica {
			s.Histograms[histNames[i]] = h.snapshot()
		}
	}
	for name, h := range r.named {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		BoundsNs: append([]int64(nil), latencyBuckets[:]...),
		Counts:   append([]int64(nil), h.counts[:]...),
		Count:    h.n,
		SumNs:    h.sum,
		MinNs:    h.min,
		MaxNs:    h.max,
	}
}

// WriteJSON writes the snapshot as indented JSON (a nil one as empty),
// byte-identical across same-seed runs: encoding/json sorts map keys.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	if s == nil {
		s = &Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

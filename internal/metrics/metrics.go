// Package metrics is the simulator's quantitative observability layer: a
// named registry of counters, gauges, and fixed-bucket virtual-time
// histograms that the paging, network, storage, and pushdown paths publish
// into. Like internal/trace it is strictly passive — recording a metric
// never advances a virtual clock — and every handle is nil-safe, so call
// sites need no guards and a machine without a registry pays nothing.
//
// Iteration order is deterministic (sorted names), so two same-seed runs
// produce byte-identical snapshot JSON — the property the determinism suite
// pins.
package metrics

import (
	"encoding/json"
	"io"
	"sort"

	"teleport/internal/sim"
)

// Counter is a monotonically increasing named value.
type Counter struct{ v int64 }

// Add increases the counter (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a named value that can move both ways.
type Gauge struct{ v int64 }

// Set replaces the gauge value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram of virtual durations. An observation
// lands in the first bucket whose upper bound (in nanoseconds, inclusive) is
// ≥ the value; anything beyond the last bound lands in the overflow bucket.
type Histogram struct {
	bounds []int64 // upper bounds, ascending
	counts []int64 // len(bounds)+1, last is overflow
	sum    int64
	n      int64
	min    int64 // smallest observation (valid when n > 0)
	max    int64 // largest observation (valid when n > 0)

	// samples retains up to sampleCap raw observations in arrival order so
	// quantiles are exact for bounded sample counts; once an observation is
	// not retained, sampleOver marks the exact mode unavailable and readers
	// fall back to bucket interpolation.
	samples    []int64
	sampleCap  int
	sampleOver bool
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
	if h.sampleCap > 0 {
		if len(h.samples) < h.sampleCap {
			h.samples = append(h.samples, ns)
		} else {
			h.sampleOver = true
		}
	}
	h.counts[sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= ns })]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the summed observations in nanoseconds (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// DefaultLatencyBuckets returns the 1-2-5 decade ladder from 100 ns to 1 s
// used by every latency histogram unless a caller supplies its own bounds.
func DefaultLatencyBuckets() []int64 {
	var b []int64
	for _, base := range []int64{100, 1000, 10 * 1000, 100 * 1000,
		1000 * 1000, 10 * 1000 * 1000, 100 * 1000 * 1000} {
		b = append(b, base, 2*base, 5*base)
	}
	return append(b, int64(sim.Second))
}

// Registry is a named metric namespace. The zero value of *Registry (nil) is
// the disabled state: every accessor returns a nil handle whose methods are
// no-ops, mirroring trace.Ring's contract. Methods are not synchronised —
// the virtual-time scheduler runs one simulated thread at a time.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// sampleCap, when > 0, is applied to every histogram created after
	// SetSampleCap: each retains up to that many raw observations for exact
	// quantile extraction (see Histogram.samples).
	sampleCap int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the default
// latency buckets on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramWithBuckets(name, nil)
}

// HistogramWithBuckets returns the named histogram, creating it with the
// given ascending upper bounds (nil = DefaultLatencyBuckets). Bounds are
// fixed at creation; later calls ignore the argument.
func (r *Registry) HistogramWithBuckets(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1), sampleCap: r.sampleCap}
		r.hists[name] = h
	}
	return h
}

// SetSampleCap makes every histogram created from now on retain up to n raw
// observations (0 disables retention). Call it before the run starts so all
// histograms share the mode; retention is passive and never advances a
// virtual clock.
func (r *Registry) SetSampleCap(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.sampleCap = n
}

// CounterValues copies every counter's current value. The map is fresh on
// each call, so callers may diff two snapshots of it; key iteration is up to
// the caller (encoding/json sorts map keys on marshal).
func (r *Registry) CounterValues() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.v
	}
	return out
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	BoundsNs []int64 `json:"bounds_ns"`
	Counts   []int64 `json:"counts"` // len(BoundsNs)+1; last is overflow
	Count    int64   `json:"count"`
	SumNs    int64   `json:"sum_ns"`
	MinNs    int64   `json:"min_ns"` // valid when Count > 0
	MaxNs    int64   `json:"max_ns"` // valid when Count > 0

	// SamplesNs holds the retained raw observations in arrival order when
	// the histogram was created under a sample cap. SampleOverflow reports
	// that at least one observation was not retained, so SamplesNs is a
	// prefix and exact quantiles are unavailable.
	SamplesNs      []int64 `json:"samples_ns,omitempty"`
	SampleOverflow bool    `json:"sample_overflow,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry. Marshal
// order is deterministic: encoding/json sorts map keys.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state (nil registry → nil).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			BoundsNs: append([]int64(nil), h.bounds...),
			Counts:   append([]int64(nil), h.counts...),
			Count:    h.n,
			SumNs:    h.sum,
			MinNs:    h.min,
			MaxNs:    h.max,
		}
		if h.sampleCap > 0 {
			hs.SamplesNs = append([]int64(nil), h.samples...)
			hs.SampleOverflow = h.sampleOver
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. A nil snapshot writes an
// empty one. Byte-identical across same-seed runs: encoding/json sorts map
// keys.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	if s == nil {
		s = &Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

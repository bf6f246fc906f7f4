package main

import (
	"encoding/json"
	"io"
	"sort"
)

// span is one timed call the driver made into a layer. Spans of one run
// share Workload and Run; Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Run      string `json:"run"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. A nil recorder records nothing, so the
// untraced rounds run the same code without the clock reads. It is used
// from the driver goroutine only: spans never cross goroutines.
type recorder struct {
	spans    []span
	stack    []int // indices into spans
	workload string
	run      string
}

// newRecorder returns a recorder with room for a pushdown round's spans, so
// that recording does not reallocate inside a timed region.
func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<14)} }

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{
		ID: i + 1, Parent: parent, Workload: r.workload, Run: r.run, Name: name, StartNs: nowNs(),
	})
	r.stack = append(r.stack, i)
	return i
}

// end closes the span begin returned, and any span opened inside it that a
// panic left open.
func (r *recorder) end(h int) {
	if r == nil {
		return
	}
	now := nowNs()
	for n := len(r.stack); n > 0; n-- {
		top := r.stack[n-1]
		r.stack = r.stack[:n-1]
		r.spans[top].EndNs = now
		if top == h {
			return
		}
	}
}

// in runs fn inside a span.
func (r *recorder) in(name string, fn func()) {
	h := r.begin(name)
	fn()
	r.end(h)
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover, indexed like spans. Children may overlap
// one another and may stick out of the parent; covered time is the union of
// their intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].StartNs < spans[ch[b]].StartNs })
		var covered int64
		edge := s.StartNs // everything before edge is already counted
		for _, c := range ch {
			lo, hi := spans[c].StartNs, spans[c].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNs - s.StartNs - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// writeChromeTrace writes spans in the Chrome trace-event format (load in
// chrome://tracing or ui.perfetto.dev): one process per workload, one
// complete ("X") event per span, microsecond timestamps.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	pids := make(map[string]int)
	events := make([]event, 0, len(spans)+8)
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
			events = append(events, event{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
				Args: map[string]any{"name": s.Workload},
			})
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: pid, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

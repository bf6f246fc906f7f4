// Package obs is the analysis layer on top of the simulator's passive
// observability substrate (internal/trace, internal/metrics). Where those
// packages record, this one answers: it folds span trees into a virtual-time
// profile (self/total time per span-kind path, exported as
// flamegraph-compatible folded stacks), extracts latency percentiles from
// histograms (bucket-interpolated, clamped to [min, max]), and runs a
// forensic flight recorder that snapshots the trace window and a counter
// delta whenever the simulation degrades (rollback, breaker trip, shard
// outage, local fallback).
//
// Everything here shares the substrate's contract: analysis is strictly
// passive (no method advances a virtual clock), every handle is nil-safe,
// and all iteration orders are deterministic, so same-seed runs produce
// byte-identical artifacts.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"teleport/internal/trace"
)

// PathStat aggregates every span that occurred at one span-kind path — the
// thread name followed by the kind chain from root span to the span itself,
// ";"-joined, the folded-stack frame format flamegraph tooling consumes.
type PathStat struct {
	Path    string `json:"path"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"` // summed durations (children included)
	SelfNs  int64  `json:"self_ns"`  // summed durations minus child time
}

// Profile is a run's virtual-time profile: where the time went, by span
// path. Paths are sorted, so iterating (and marshalling) is deterministic.
type Profile struct {
	Paths []PathStat `json:"paths"`

	// SkippedSpans counts spans left out of the profile because one of
	// their endpoints was missing from the retained window (open at
	// capture, or lost to ring wraparound).
	SkippedSpans int `json:"skipped_spans,omitempty"`

	// DroppedEvents is the ring's wraparound loss at capture time; non-zero
	// means the profile covers a suffix of the run, not all of it.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// maxPathDepth bounds the ancestor walk; real span trees are ~4 deep, so
// hitting the bound means a malformed parent chain, which we truncate
// rather than loop on.
const maxPathDepth = 64

// BuildProfile folds a retained event window (oldest-first, as returned by
// Ring.Events) into a Profile. Only complete spans — both endpoints
// retained — contribute; dropped is the ring's Dropped() at capture, kept on
// the profile so consumers can tell a truncated profile from a full one.
func BuildProfile(events []trace.Event, dropped uint64) *Profile {
	spans := trace.PairSpans(events)
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}

	// Child time per span, so self = duration − childNs.
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if !s.Complete || s.Parent == 0 {
			continue
		}
		if j, ok := byID[s.Parent]; ok && spans[j].Complete {
			childNs[j] += int64(s.Duration())
		}
	}

	p := &Profile{DroppedEvents: dropped}
	agg := make(map[string]*PathStat)
	for i, s := range spans {
		if !s.Complete {
			p.SkippedSpans++
			continue
		}
		path := pathOf(spans, byID, i)
		ps := agg[path]
		if ps == nil {
			ps = &PathStat{Path: path}
			agg[path] = ps
		}
		dur := int64(s.Duration())
		ps.Count++
		ps.TotalNs += dur
		if self := dur - childNs[i]; self > 0 {
			ps.SelfNs += self
		}
	}

	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.Paths = make([]PathStat, len(keys))
	for i, k := range keys {
		p.Paths[i] = *agg[k]
	}
	return p
}

// pathOf renders span i's folded-stack frame: thread name, then the kind
// chain from the outermost retained ancestor down to the span itself. A
// parent lost to ring wraparound truncates the chain at the oldest ancestor
// still retained.
func pathOf(spans []trace.Span, byID map[uint64]int, i int) string {
	var kinds []string
	for depth := 0; depth < maxPathDepth; depth++ {
		kinds = append(kinds, spans[i].Kind.String())
		if spans[i].Parent == 0 {
			break
		}
		j, ok := byID[spans[i].Parent]
		if !ok || j == i {
			break
		}
		i = j
	}
	// kinds is innermost-first; fold root-first under the thread name.
	frames := make([]string, 0, len(kinds)+1)
	frames = append(frames, spans[i].Who)
	for k := len(kinds) - 1; k >= 0; k-- {
		frames = append(frames, kinds[k])
	}
	// ";" is the frame separator flamegraph.pl and speedscope expect.
	return strings.Join(frames, ";")
}

// WriteFolded writes the profile as folded stacks — one "path selfNs" line
// per span path, sorted — the input format of flamegraph.pl
// (--countname=ns) and speedscope. Paths with zero self time are kept: a
// pure-dispatch frame is information, not noise.
func (p *Profile) WriteFolded(w io.Writer) error {
	if p == nil {
		return nil
	}
	for _, ps := range p.Paths {
		if _, err := fmt.Fprintf(w, "%s %d\n", ps.Path, ps.SelfNs); err != nil {
			return err
		}
	}
	return nil
}

// TopK returns the k hottest paths by self time (ties broken by path, so
// the cut is deterministic). k <= 0 or beyond the path count returns all.
func (p *Profile) TopK(k int) []PathStat {
	if p == nil {
		return nil
	}
	out := append([]PathStat(nil), p.Paths...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Path < out[j].Path
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// TotalSelfNs sums self time across every path — the profile's denominator
// for share-of-run columns.
func (p *Profile) TotalSelfNs() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for _, ps := range p.Paths {
		n += ps.SelfNs
	}
	return n
}

package obs

import (
	"sort"

	"teleport/internal/metrics"
)

// Percentiles is one operation class's end-to-end latency distribution,
// extracted from a metrics histogram. Values are virtual nanoseconds.
type Percentiles struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	MinNs  int64   `json:"min_ns"`
	MaxNs  int64   `json:"max_ns"`
	P50    float64 `json:"p50_ns"`
	P95    float64 `json:"p95_ns"`
	P99    float64 `json:"p99_ns"`
	P999   float64 `json:"p999_ns"`
}

// FromHistogram extracts percentiles from one histogram snapshot: each
// quantile is interpolated linearly within the fixed bucket holding its rank
// and clamped to the observed [min, max] envelope, so it is off by at most
// its bucket's width (DESIGN.md §9), and a class of one sample reports that
// sample. Deterministic: the same snapshot always yields the same values.
func FromHistogram(hs metrics.HistogramSnapshot) Percentiles {
	p := Percentiles{Count: hs.Count, MinNs: hs.MinNs, MaxNs: hs.MaxNs}
	if hs.Count == 0 {
		return p
	}
	p.MeanNs = float64(hs.SumNs) / float64(hs.Count)
	p.P50 = quantileBuckets(hs, 0.50)
	p.P95 = quantileBuckets(hs, 0.95)
	p.P99 = quantileBuckets(hs, 0.99)
	p.P999 = quantileBuckets(hs, 0.999)
	return p
}

// quantileBuckets interpolates the q-quantile from fixed bucket counts: find
// the bucket holding observation rank q·n, assume observations spread
// uniformly inside it, and interpolate between the bucket's bounds. The
// first bucket's lower bound is the observed minimum and the overflow
// bucket's upper bound is the observed maximum, so the estimate never leaves
// the [min, max] envelope.
func quantileBuckets(hs metrics.HistogramSnapshot, q float64) float64 {
	n := hs.Count
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range hs.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo := float64(hs.MinNs)
			if i > 0 {
				lo = float64(hs.BoundsNs[i-1])
			}
			hi := float64(hs.MaxNs)
			if i < len(hs.BoundsNs) {
				hi = float64(hs.BoundsNs[i])
			}
			if lo < float64(hs.MinNs) {
				lo = float64(hs.MinNs)
			}
			if hi > float64(hs.MaxNs) {
				hi = float64(hs.MaxNs)
			}
			if hi <= lo {
				return lo
			}
			frac := (target - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(hs.MaxNs)
}

// OpLatency is one operation class (one named histogram) with its extracted
// percentiles.
type OpLatency struct {
	Name string `json:"name"`
	Percentiles
}

// LatencySummary extracts percentiles for every histogram in a snapshot,
// sorted by name — each histogram is one operation class (per-operator
// "op.<name>.ns", pushdown "push.*.ns", paging "fault.remote.ns", recovery
// "pool.stall.ns", wire "net.*.ns", device "ssd.*.ns"). Nil-safe: a nil
// snapshot yields nil.
func LatencySummary(s *metrics.Snapshot) []OpLatency {
	if s == nil || len(s.Histograms) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]OpLatency, 0, len(names))
	for _, name := range names {
		hs := s.Histograms[name]
		if hs.Count == 0 {
			continue
		}
		out = append(out, OpLatency{Name: name, Percentiles: FromHistogram(hs)})
	}
	return out
}

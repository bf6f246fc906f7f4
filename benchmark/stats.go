package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples over rounds.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
}

func summarise(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return summary{Median: med, Q1: q1, Q3: q3, Min: s[0], N: len(s)}
}

// quartiles returns the three cut points of sorted, by the rule of Python's
// statistics.quantiles(values, n=4) (exclusive method), so the spreads this
// package prints are the ones the acceptance procedure computes. One sample
// is its own quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	return cut(1), cut(2), cut(3)
}

func median(samples []float64) float64 { return summarise(samples).Median }

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

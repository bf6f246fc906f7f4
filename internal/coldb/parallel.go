package coldb

import (
	"fmt"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/sim"
)

// This file implements multi-worker query execution: §2.1's elasticity
// promise ("spawn any number of query execution workers in the compute
// pool") combined with concurrent pushdown (§3.2, Figure 17). Each worker
// is a simulated thread owning a row partition; with a runtime attached,
// every worker Teleports its partition and the memory pool's user contexts
// arbitrate the concurrency.

// PartialAgg is one worker's partition aggregate.
type PartialAgg struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
	valid bool
}

// merge folds another partial in.
func (a *PartialAgg) merge(b PartialAgg) {
	if !b.valid {
		return
	}
	if !a.valid {
		*a = b
		return
	}
	a.Sum += b.Sum
	a.Count += b.Count
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// Final extracts the requested aggregate.
func (a PartialAgg) Final(kind AggKind) float64 {
	switch kind {
	case AggSum:
		return a.Sum
	case AggCount:
		return float64(a.Count)
	case AggMin:
		return a.Min
	default:
		return a.Max
	}
}

// aggregateRange folds rows [lo, hi) of col into a partial.
func aggregateRange(env *ddc.Env, col *Column, lo, hi int) PartialAgg {
	var out PartialAgg
	sc := newScan(env, nil, hi-lo, opsAggregate)
	in := cursor{s: sc.Stream(col.Addr(lo), col.Type.Width(), 0), typ: col.Type, at: &sc.I}
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			v := in.f64(j)
			if !out.valid {
				out = PartialAgg{Sum: v, Count: 1, Min: v, Max: v, valid: true}
				continue
			}
			out.Sum += v
			out.Count++
			if v < out.Min {
				out.Min = v
			}
			if v > out.Max {
				out.Max = v
			}
		}
	}
	return out
}

// ParallelAggregate aggregates col with `workers` compute-pool threads,
// each owning a contiguous row partition. With rt non-nil every worker
// pushes its partition down; concurrent requests share the memory pool's
// user contexts (Figure 17's setup). It returns the aggregate and the
// virtual makespan.
func ParallelAggregate(p *ddc.Process, rt *core.Runtime, workers int, col *Column, kind AggKind) (float64, sim.Time, error) {
	if workers < 1 {
		workers = 1
	}
	partials := make([]PartialAgg, workers)
	errs := make([]error, workers)
	chunk := (col.N + workers - 1) / workers

	s := sim.NewScheduler()
	for i := 0; i < workers; i++ {
		i := i
		lo := i * chunk
		hi := lo + chunk
		if hi > col.N {
			hi = col.N
		}
		if lo >= hi {
			continue
		}
		s.Spawn(fmt.Sprintf("agg-worker-%d", i), 0, func(th *sim.Thread) {
			if rt == nil {
				partials[i] = aggregateRange(p.NewEnv(th), col, lo, hi)
				return
			}
			_, errs[i] = rt.Pushdown(th, func(env *ddc.Env) {
				partials[i] = aggregateRange(env, col, lo, hi)
			}, core.Options{})
		})
	}
	makespan := s.Run()
	var agg PartialAgg
	for i, part := range partials {
		if errs[i] != nil {
			return 0, makespan, errs[i]
		}
		agg.merge(part)
	}
	return agg.Final(kind), makespan, nil
}

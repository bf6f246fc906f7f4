package coldb

import (
	"fmt"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// GroupAgg is an open-addressing hash aggregation table in disaggregated
// memory: group keys and running sums, linear probing.
type GroupAgg struct {
	nSlots int
	keys   mem.Addr // int64 per slot; sentinel emptyKey
	sums   mem.Addr // float64 per slot
	counts mem.Addr // int64 per slot
	Groups int
}

const emptyKey = int64(-0x7FFFFFFFFFFFFFFF)

// NewGroupAgg allocates a table for up to maxGroups distinct keys.
func NewGroupAgg(p *ddc.Process, maxGroups int) *GroupAgg {
	n := 16
	for n < maxGroups*2 {
		n <<= 1
	}
	g := &GroupAgg{
		nSlots: n,
		keys:   p.Space.AllocPages(int64(n)*8, "group.keys"),
		sums:   p.Space.AllocPages(int64(n)*8, "group.sums"),
		counts: p.Space.AllocPages(int64(n)*8, "group.counts"),
	}
	for i := 0; i < n; i++ {
		p.Space.WriteI64(g.keys+mem.Addr(i*8), emptyKey)
	}
	return g
}

// Add accumulates v into key's group.
func (g *GroupAgg) Add(env *ddc.Env, key int64, v float64) {
	env.Compute(opsGroup)
	slot := int(uint64(key)*0x9E3779B97F4A7C15>>32) & (g.nSlots - 1)
	for probes := 0; ; probes++ { // positional: the key's slot and its neighbours
		if probes == g.nSlots {
			panic(fmt.Sprintf("coldb: group table of %d slots is full", g.nSlots))
		}
		k := env.ReadI64(g.keys + mem.Addr(slot*8))
		if k == key {
			break
		}
		if k == emptyKey {
			env.WriteI64(g.keys+mem.Addr(slot*8), key)
			g.Groups++
			break
		}
		env.Compute(opsChainStep)
		slot = (slot + 1) & (g.nSlots - 1)
	}
	a := mem.Addr(slot * 8)
	env.WriteF64(g.sums+a, env.ReadF64(g.sums+a)+v)
	env.WriteI64(g.counts+a, env.ReadI64(g.counts+a)+1)
}

// GroupRow is one group's result.
type GroupRow struct {
	Key   int64
	Sum   float64
	Count int64
}

// Rows scans the table and returns all groups (order unspecified).
func (g *GroupAgg) Rows(env *ddc.Env) []GroupRow {
	out := make([]GroupRow, 0, g.Groups)
	sc := newScan(env, nil, g.nSlots, 2)
	keys := sc.Stream(g.keys, 8, 0)
	sums, counts := sc.Stream(g.sums, 8, ddc.StreamExplicit), sc.Stream(g.counts, 8, ddc.StreamExplicit)
	for sc.Next() {
		for j := 0; j < sc.Len; j++ {
			k := I64.i64(keys.Bytes()[j*8:])
			if k == emptyKey {
				continue
			}
			out = append(out, GroupRow{
				Key:   k,
				Sum:   F64.f64(sc.Access(sums, j, sc.I+j)),
				Count: I64.i64(sc.Access(counts, j, sc.I+j)),
			})
		}
	}
	return out
}

// GroupBySum aggregates vals by keys over candidate rows and returns the
// group table (the Group/Aggr. operators of Figure 10).
func GroupBySum(env *ddc.Env, keys, vals *Column, cand *CandList, maxGroups int) *GroupAgg {
	g := NewGroupAgg(env.P, maxGroups)
	sc := scalarScan(env, cand, keys.N) // every row updates a random group: none is absorbed
	k, v := sc.read(keys), sc.read(vals)
	for sc.Next() {
		g.Add(env, k.i64(0), v.f64(0))
	}
	return g
}

// TopK returns the k groups with the largest sums (descending), a small
// compute-side post-processing step (the "top 10" of TPC-H Q3).
func TopK(env *ddc.Env, rows []GroupRow, k int) []GroupRow {
	out := append([]GroupRow(nil), rows...)
	// Simple selection of the top k; result sets here are small.
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			env.Compute(2)
			if out[j].Sum > out[best].Sum {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Package graph is an in-memory gather-apply-scatter graph engine in the
// style of PowerGraph (§5.2). The graph — CSR adjacency, edge weights, and
// all vertex state — lives in the process's disaggregated address space, so
// the random vertex/edge accesses of finalize, gather, and scatter flow
// through the paging model exactly as the paper describes. The engine
// separates the four phases (Finalize, Gather, Apply, Scatter) so that the
// data-intensive ones can be Teleported individually (Figure 11 pushes
// Finalize, Scatter, and Gather).
package graph

import (
	"math/rand"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// Graph is a directed graph in CSR form held in disaggregated memory. For
// undirected algorithms (CC) the generator emits both edge directions.
type Graph struct {
	P  *ddc.Process
	NV int
	NE int

	offsets mem.Addr // int64 per vertex+1
	edges   mem.Addr // int32 destination per edge
	weights mem.Addr // int32 weight per edge
}

// GenConfig controls graph generation.
type GenConfig struct {
	// NV is the vertex count; AvgDegree the mean out-degree.
	NV        int
	AvgDegree int
	// Seed makes generation deterministic.
	Seed int64
	// Undirected mirrors every edge (needed by CC).
	Undirected bool
	// KeepRaw retains a plain-Go adjacency copy for verification.
	KeepRaw bool
}

// RawGraph is the plain-Go copy kept for tests.
type RawGraph struct {
	Adj     [][]int32
	Weights [][]int32
}

// Generate builds a power-law-ish random graph (preferential attachment on
// destinations, standing in for the paper's real-world social network [52])
// directly in the memory pool: like database loading, generation bypasses
// the compute cache.
//
// Edges are recorded in emission order in three flat arrays and scattered
// into the CSR by a stable counting sort on the source, which leaves every
// vertex's edges in the order they were emitted — the adjacency order
// per-vertex lists would have, without one growing slice per vertex.
func Generate(p *ddc.Process, cfg GenConfig) (*Graph, *RawGraph) {
	if cfg.NV <= 0 || cfg.AvgDegree <= 0 {
		panic("graph: bad GenConfig")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	// per is the number of entries one drawn edge emits: itself and, when
	// undirected, its mirror right after it. The mean degree is AvgDegree,
	// so the slack below makes growing the arrays a many-sigma event.
	per := 1
	if cfg.Undirected {
		per = 2
	}
	expect := per * (cfg.NV*cfg.AvgDegree*9/8 + 64)
	src := make([]int32, 0, expect)
	dst := make([]int32, 0, expect)
	wts := make([]int32, 0, expect)
	for u := 0; u < cfg.NV; u++ {
		deg := 1 + r.Intn(cfg.AvgDegree*2-1)
		for k := 0; k < deg; k++ {
			// Preferential attachment: sample an endpoint from previously
			// used endpoints — the destinations of the edges drawn so far —
			// with probability 1/2, uniformly otherwise.
			var v int32
			if drawn := len(dst) / per; drawn > 0 && r.Intn(2) == 0 {
				v = dst[per*r.Intn(drawn)]
			} else {
				v = int32(r.Intn(cfg.NV))
			}
			if int(v) == u {
				v = int32((u + 1) % cfg.NV)
			}
			w := int32(1 + r.Intn(16))
			src, dst, wts = append(src, int32(u)), append(dst, v), append(wts, w)
			if cfg.Undirected {
				src, dst, wts = append(src, v), append(dst, int32(u)), append(wts, w)
			}
		}
	}

	g := newCSR(p, cfg.NV, len(src))
	// next[u] is where u's next edge goes: the counts' running sum.
	next := make([]int64, cfg.NV+1)
	for _, u := range src {
		next[u+1]++
	}
	for u := 0; u < cfg.NV; u++ {
		next[u+1] += next[u]
	}
	for u, off := range next {
		p.Space.WriteI64(g.offsets+mem.Addr(u*8), off)
	}
	var raw *RawGraph
	var rawDst, rawWts []int32
	if cfg.KeepRaw {
		raw = &RawGraph{Adj: make([][]int32, cfg.NV), Weights: make([][]int32, cfg.NV)}
		rawDst, rawWts = make([]int32, len(src)), make([]int32, len(src))
		for u := 0; u < cfg.NV; u++ {
			lo, hi := next[u], next[u+1]
			raw.Adj[u], raw.Weights[u] = rawDst[lo:hi:hi], rawWts[lo:hi:hi]
		}
	}
	for e, u := range src {
		at := next[u]
		next[u]++
		p.Space.WriteI32(g.edges+mem.Addr(at*4), dst[e])
		p.Space.WriteI32(g.weights+mem.Addr(at*4), wts[e])
		if raw != nil {
			rawDst[at], rawWts[at] = dst[e], wts[e]
		}
	}
	return g, raw
}

// newCSR allocates an empty CSR for nv vertices and ne edges, its three
// arrays populated (mem.Space.Populate): both callers fill every entry.
func newCSR(p *ddc.Process, nv, ne int) *Graph {
	g := &Graph{
		P: p, NV: nv, NE: ne,
		offsets: p.Space.AllocPages(int64(nv+1)*8, "graph.offsets"),
		edges:   p.Space.AllocPages(int64(max(ne, 1))*4, "graph.edges"),
		weights: p.Space.AllocPages(int64(max(ne, 1))*4, "graph.weights"),
	}
	p.Space.Populate(g.offsets, int64(nv+1)*8)
	p.Space.Populate(g.edges, int64(ne)*4)
	p.Space.Populate(g.weights, int64(ne)*4)
	return g
}

// FromAdjacency loads an explicit adjacency list into disaggregated memory.
func FromAdjacency(p *ddc.Process, adj [][]int32, wts [][]int32) *Graph {
	nv := len(adj)
	ne := 0
	for _, a := range adj {
		ne += len(a)
	}
	g := newCSR(p, nv, ne)
	off := int64(0)
	for u := 0; u < nv; u++ {
		p.Space.WriteI64(g.offsets+mem.Addr(u*8), off)
		for k, v := range adj[u] {
			p.Space.WriteI32(g.edges+mem.Addr(off*4), v)
			w := int32(1)
			if wts != nil {
				w = wts[u][k]
			}
			p.Space.WriteI32(g.weights+mem.Addr(off*4), w)
			off++
		}
	}
	p.Space.WriteI64(g.offsets+mem.Addr(nv*8), off)
	return g
}

// EdgeRange returns the CSR slice [lo, hi) of u's out-edges.
func (g *Graph) EdgeRange(env *ddc.Env, u int) (lo, hi int64) {
	lo = env.ReadI64(g.offsets + mem.Addr(u*8))
	hi = env.ReadI64(g.offsets + mem.Addr((u+1)*8))
	return lo, hi
}

// EdgeAt returns edge e's destination and weight.
func (g *Graph) EdgeAt(env *ddc.Env, e int64) (dst int, w int64) {
	return int(env.ReadI32(g.edges + mem.Addr(e*4))),
		int64(env.ReadI32(g.weights + mem.Addr(e*4)))
}

// Bytes returns the graph's footprint.
func (g *Graph) Bytes() int64 { return int64(g.NV+1)*8 + int64(g.NE)*8 }

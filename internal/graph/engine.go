package graph

import (
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
)

// Phase names for pushdown sets and Figure 10 profiles.
const (
	OpFinalize = "Finalize"
	OpGather   = "Gather"
	OpApply    = "Apply"
	OpScatter  = "Scatter"
)

// Combine selects the message combiner.
type Combine int

// Combiners.
const (
	CombineMin Combine = iota
	CombineSum
)

// Inf is the "no value" sentinel for min-combined algorithms.
const Inf = int64(1) << 60

// Per-element CPU costs. PowerGraph executes a heavyweight vertex-program
// machinery per edge (functors, locks, scheduling bits), so its per-edge
// instruction count dwarfs a bare CSR traversal; these values reflect that,
// and keep the graph workloads' DDC slowdown at the paper's ~5x rather than
// the ~100x a bare loop would show.
const (
	opsEdge     = 60
	opsVertex   = 30
	opsFinalize = 45
)

// Program defines a vertex program in the gather-apply-scatter model.
type Program struct {
	// Combine merges messages destined for the same vertex.
	Combine Combine
	// Init returns a vertex's initial value and whether it starts active.
	Init func(v int) (val int64, active bool)
	// Scatter produces the message u sends along an edge of weight w given
	// its current value and out-degree.
	Scatter func(val, w, deg int64) int64
	// Apply merges the combined message into the vertex value, returning
	// the new value and whether the vertex activates for the next round.
	Apply func(old, msg int64) (int64, bool)
	// MaxIters bounds the iteration count (0 = run to convergence).
	MaxIters int
}

// Engine executes a Program over a Graph. All engine state (vertex values,
// message buffer, active lists) lives in disaggregated memory.
type Engine struct {
	G    *Graph
	Prog Program

	// Workers is the partition count used by Finalize (§5.2: "partition and
	// shuffle input graph among the worker threads").
	Workers int

	vals   mem.Addr // int64 per vertex
	msgs   mem.Addr // int64 per vertex (combined incoming messages)
	hasMsg mem.Addr // one byte per vertex
	active mem.Addr // uint32 list of active vertices
	nAct   int

	// Finalize output: vertices regrouped by worker, plus a per-worker
	// shuffled copy of the adjacency so each worker scans its own edges.
	partVerts mem.Addr // uint32 per vertex, grouped by worker
	partOffs  []int64  // worker boundaries in partVerts (host metadata)
	partEdges mem.Addr // the shuffled edge copy (dst+weight per edge)
	Iters     int
}

// NewEngine allocates engine state for g.
func NewEngine(g *Graph, prog Program, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	nv := int64(g.NV)
	return &Engine{
		G: g, Prog: prog, Workers: workers,
		vals:      g.P.Space.AllocPages(nv*8, "eng.vals"),
		msgs:      g.P.Space.AllocPages(nv*8, "eng.msgs"),
		hasMsg:    g.P.Space.AllocPages(nv, "eng.hasmsg"),
		active:    g.P.Space.AllocPages(nv*4+4, "eng.active"),
		partVerts: g.P.Space.AllocPages(nv*4+4, "eng.partverts"),
	}
}

// Value returns vertex v's final value.
func (e *Engine) Value(env *ddc.Env, v int) int64 {
	return env.ReadI64(e.vals + mem.Addr(v*8))
}

// Run executes finalize and then iterates gather/apply/scatter until no
// vertex is active (or MaxIters), recording each phase in ex.
func (e *Engine) Run(ex *profile.Exec) {
	ex.Run(OpFinalize, func(env *ddc.Env) { e.finalize(env) })
	e.Iters = 0
	for e.nAct > 0 {
		if e.Prog.MaxIters > 0 && e.Iters >= e.Prog.MaxIters {
			break
		}
		e.Iters++
		ex.Run(OpScatter, func(env *ddc.Env) { e.scatter(env) })
		ex.Run(OpGather, func(env *ddc.Env) { e.gather(env) })
		ex.Run(OpApply, func(env *ddc.Env) { e.apply(env) })
	}
}

// finalize initialises vertex state and partitions/shuffles the vertices
// among workers — a full pass over vertex and edge state.
func (e *Engine) finalize(env *ddc.Env) {
	g := e.G
	// Initial values and the initial active frontier.
	e.nAct = 0
	for v := 0; v < g.NV; v++ {
		env.Compute(opsVertex)
		val, act := e.Prog.Init(v)
		env.WriteI64(e.vals+mem.Addr(v*8), val)
		env.WriteU8(e.hasMsg+mem.Addr(v), 0)
		if act {
			env.WriteU32(e.active+mem.Addr(e.nAct*4), uint32(v))
			e.nAct++
		}
	}
	// Partition: hash vertices to workers and group them (the shuffle).
	counts := make([]int64, e.Workers)
	for v := 0; v < g.NV; v++ {
		env.Compute(opsFinalize)
		counts[v%e.Workers]++
	}
	e.partOffs = make([]int64, e.Workers+1)
	for w := 0; w < e.Workers; w++ {
		e.partOffs[w+1] = e.partOffs[w] + counts[w]
	}
	cursor := append([]int64(nil), e.partOffs[:e.Workers]...)
	for v := 0; v < g.NV; v++ {
		w := v % e.Workers
		env.Compute(opsFinalize)
		env.WriteU32(e.partVerts+mem.Addr(cursor[w]*4), uint32(v))
		cursor[w]++
	}
	// Shuffle the edge state: every worker walks its vertices' adjacency
	// (random CSR access once vertices are regrouped) and materialises its
	// own copy of the edges — the data movement that dominates finalize in
	// a DDC (Figure 10: 249 GB of remote access).
	if e.partEdges == 0 {
		e.partEdges = g.P.Space.AllocPages(int64(max(g.NE, 1))*8, "eng.partedges")
	}
	out := int64(0)
	for w := 0; w < e.Workers; w++ {
		for i := e.partOffs[w]; i < e.partOffs[w+1]; i++ {
			v := int(env.ReadU32(e.partVerts + mem.Addr(i*4)))
			lo, hi := g.EdgeRange(env, v)
			for edge := lo; edge < hi; edge++ {
				env.Compute(opsFinalize)
				dst, wgt := g.EdgeAt(env, edge)
				// partEdges holds one (dst, weight) pair of uint32s per edge.
				a := e.partEdges + mem.Addr(out*8)
				env.WriteU32(a, uint32(dst))
				env.WriteU32(a+4, uint32(wgt))
				out++
			}
		}
	}
}

// scatter sends messages from the active frontier along out-edges,
// combining into the per-vertex message slots (random remote writes).
func (e *Engine) scatter(env *ddc.Env) {
	g := e.G
	for i := 0; i < e.nAct; i++ {
		u := int(env.ReadU32(e.active + mem.Addr(i*4)))
		val := env.ReadI64(e.vals + mem.Addr(u*8))
		lo, hi := g.EdgeRange(env, u)
		deg := hi - lo
		for edge := lo; edge < hi; edge++ {
			env.Compute(opsEdge)
			dst, w := g.EdgeAt(env, edge)
			msg := e.Prog.Scatter(val, w, deg)
			slot := e.msgs + mem.Addr(dst*8)
			if env.ReadU8(e.hasMsg+mem.Addr(dst)) == 0 {
				env.WriteU8(e.hasMsg+mem.Addr(dst), 1)
				env.WriteI64(slot, msg)
				continue
			}
			old := env.ReadI64(slot)
			if e.Prog.Combine == CombineMin {
				if msg < old {
					env.WriteI64(slot, msg)
				}
			} else {
				env.WriteI64(slot, old+msg)
			}
		}
	}
}

// gather sweeps the message buffer and collects the vertices that received
// messages into the next frontier (sequential scan of vertex state).
func (e *Engine) gather(env *ddc.Env) {
	e.nAct = 0
	for v := 0; v < e.G.NV; v++ {
		env.Compute(opsVertex)
		if env.ReadU8(e.hasMsg+mem.Addr(v)) != 0 {
			env.WriteU32(e.active+mem.Addr(e.nAct*4), uint32(v))
			e.nAct++
		}
	}
}

// apply merges combed messages into vertex values and keeps only the
// vertices the program reactivates.
func (e *Engine) apply(env *ddc.Env) {
	kept := 0
	for i := 0; i < e.nAct; i++ {
		v := int(env.ReadU32(e.active + mem.Addr(i*4)))
		env.Compute(opsVertex)
		msg := env.ReadI64(e.msgs + mem.Addr(v*8))
		env.WriteU8(e.hasMsg+mem.Addr(v), 0)
		old := env.ReadI64(e.vals + mem.Addr(v*8))
		nv, act := e.Prog.Apply(old, msg)
		if nv != old {
			env.WriteI64(e.vals+mem.Addr(v*8), nv)
		}
		if act {
			env.WriteU32(e.active+mem.Addr(kept*4), uint32(v))
			kept++
		}
	}
	e.nAct = kept
}

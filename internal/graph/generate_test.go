package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// referenceGenerate is the generator Generate replaced, kept as its oracle:
// one growing adjacency slice per vertex, loaded through FromAdjacency.
func referenceGenerate(p *ddc.Process, cfg GenConfig) (*Graph, *RawGraph) {
	r := rand.New(rand.NewSource(cfg.Seed))
	adj := make([][]int32, cfg.NV)
	wts := make([][]int32, cfg.NV)
	pool := make([]int32, 0, cfg.NV*cfg.AvgDegree)
	for u := 0; u < cfg.NV; u++ {
		deg := 1 + r.Intn(cfg.AvgDegree*2-1)
		for k := 0; k < deg; k++ {
			var v int32
			if len(pool) > 0 && r.Intn(2) == 0 {
				v = pool[r.Intn(len(pool))]
			} else {
				v = int32(r.Intn(cfg.NV))
			}
			if int(v) == u {
				v = int32((u + 1) % cfg.NV)
			}
			w := int32(1 + r.Intn(16))
			adj[u] = append(adj[u], v)
			wts[u] = append(wts[u], w)
			pool = append(pool, v)
			if cfg.Undirected {
				adj[v] = append(adj[v], int32(u))
				wts[v] = append(wts[v], w)
			}
		}
	}
	return FromAdjacency(p, adj, wts), &RawGraph{Adj: adj, Weights: wts}
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

// spaceImage returns the bytes of every page p's address space spans, in
// address order.
func spaceImage(p *ddc.Process) []byte {
	var img bytes.Buffer
	first, last, _ := p.Space.Extent()
	for pg := first; pg <= last; pg++ {
		img.Write(p.Space.Frame(pg))
	}
	return img.Bytes()
}

// The counting-sort CSR build must draw the same random numbers and leave
// the same bytes in the address space — offsets, every vertex's edges in
// emission order, weights — as per-vertex appends did, and hand out the same
// raw adjacency.
func TestGenerateMatchesAppendReference(t *testing.T) {
	for _, undirected := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := GenConfig{NV: 300 * int(seed), AvgDegree: 2 + int(seed), Seed: seed, Undirected: undirected}
			pr := ddc.MustMachine(ddc.Linux()).NewProcess()
			want, wantRaw := referenceGenerate(pr, cfg)
			for _, keep := range []bool{false, true} {
				cfg.KeepRaw = keep
				p := ddc.MustMachine(ddc.Linux()).NewProcess()
				g, raw := Generate(p, cfg)
				if g.NV != want.NV || g.NE != want.NE || g.offsets != want.offsets ||
					g.edges != want.edges || g.weights != want.weights {
					t.Fatalf("%+v: graph %+v, reference %+v", cfg, g, want)
				}
				if !bytes.Equal(spaceImage(p), spaceImage(pr)) {
					t.Fatalf("%+v: address space differs from the reference's", cfg)
				}
				if !keep {
					if raw != nil {
						t.Fatalf("%+v: raw copy returned without KeepRaw", cfg)
					}
					continue
				}
				if !slices.EqualFunc(raw.Adj, wantRaw.Adj, slices.Equal[[]int32]) ||
					!slices.EqualFunc(raw.Weights, wantRaw.Weights, slices.Equal[[]int32]) {
					t.Fatalf("%+v: raw adjacency differs from the reference's", cfg)
				}
				// A caller appending to one vertex's list must not reach into
				// its neighbour's: the sub-slices are capped.
				if u := 0; cap(raw.Adj[u]) != len(raw.Adj[u]) {
					t.Fatalf("raw.Adj[%d] has spare capacity into the next vertex", u)
				}
			}
		}
	}
}

// Generation allocates the three edge arrays, the cursor array and the graph
// — a count that does not grow with the vertex count (frames aside: the
// address space materialises one per touched page).
func TestGenerateAllocsIndependentOfSize(t *testing.T) {
	allocs := func(nv int) float64 {
		cfg := GenConfig{NV: nv, AvgDegree: 6, Seed: 9, Undirected: true}
		var frames int64
		n := testing.AllocsPerRun(3, func() {
			p := ddc.MustMachine(ddc.Linux()).NewProcess()
			Generate(p, cfg)
			frames = p.Space.Pages()
		})
		return n - float64(frames)
	}
	small, large := allocs(500), allocs(8000)
	if large > small+4 { // slack for the frame table, which grows by doubling
		t.Fatalf("Generate allocates %.0f objects beyond frames at 8000 vertices, %.0f at 500", large, small)
	}
}

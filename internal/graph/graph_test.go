package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

func localEngineFor(adj [][]int32, wts [][]int32, prog Program) (*Engine, *profile.Exec) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	g := FromAdjacency(p, adj, wts)
	eng := NewEngine(g, prog, 4)
	return eng, profile.NewExec(sim.NewThread("g"), p, nil)
}

// dijkstraRef computes reference shortest paths on the raw adjacency.
func dijkstraRef(adj [][]int32, wts [][]int32, src int) []int64 {
	nv := len(adj)
	dist := make([]int64, nv)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	done := make([]bool, nv)
	for {
		u, best := -1, Inf
		for v := 0; v < nv; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for k, v := range adj[u] {
			if nd := dist[u] + int64(wts[u][k]); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
}

func randomAdj(r *rand.Rand, nv, maxDeg int) ([][]int32, [][]int32) {
	adj := make([][]int32, nv)
	wts := make([][]int32, nv)
	for u := 0; u < nv; u++ {
		deg := r.Intn(maxDeg + 1)
		for k := 0; k < deg; k++ {
			adj[u] = append(adj[u], int32(r.Intn(nv)))
			wts[u] = append(wts[u], int32(1+r.Intn(9)))
		}
	}
	return adj, wts
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := r.Intn(60) + 2
		adj, wts := randomAdj(r, nv, 5)
		eng, ex := localEngineFor(adj, wts, SSSP(0))
		eng.Run(ex)
		want := dijkstraRef(adj, wts, 0)
		env := ex.Env
		for v := 0; v < nv; v++ {
			if eng.Value(env, v) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReachabilityMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := r.Intn(60) + 2
		adj, wts := randomAdj(r, nv, 4)
		eng, ex := localEngineFor(adj, wts, Reachability(0))
		eng.Run(ex)
		// BFS reference.
		seen := make([]bool, nv)
		seen[0] = true
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int(v))
				}
			}
		}
		env := ex.Env
		for v := 0; v < nv; v++ {
			reached := eng.Value(env, v) == 0
			if reached != seen[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCCMatchesUnionFind is the paper-agnostic invariant: label propagation
// must agree with union-find on undirected graphs.
func TestCCMatchesUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := r.Intn(60) + 2
		adj := make([][]int32, nv)
		parent := make([]int, nv)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for k := 0; k < nv; k++ {
			u, v := r.Intn(nv), r.Intn(nv)
			if u == v {
				continue
			}
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
			parent[find(u)] = find(v)
		}
		eng, ex := localEngineFor(adj, nil, CC())
		eng.Run(ex)
		env := ex.Env
		// Same component ⇔ same label.
		label := map[int]int64{}
		for v := 0; v < nv; v++ {
			root := find(v)
			got := eng.Value(env, v)
			if prev, ok := label[root]; ok && prev != got {
				return false
			}
			label[root] = got
		}
		return len(label) == countRoots(parent, find)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func countRoots(parent []int, find func(int) int) int {
	roots := map[int]bool{}
	for v := range parent {
		roots[find(v)] = true
	}
	return len(roots)
}

func TestPageRankConservesAndConverges(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	adj, wts := randomAdj(r, 50, 4)
	// Ensure every vertex has at least one out-edge so rank flows.
	for u := range adj {
		if len(adj[u]) == 0 {
			adj[u] = append(adj[u], int32((u+1)%50))
			wts[u] = append(wts[u], 1)
		}
	}
	eng, ex := localEngineFor(adj, wts, PageRank(10, 50))
	eng.Run(ex)
	if eng.Iters != 10 {
		t.Fatalf("PageRank ran %d iters, want 10", eng.Iters)
	}
	env := ex.Env
	var total int64
	for v := 0; v < 50; v++ {
		rank := eng.Value(env, v)
		if rank <= 0 {
			t.Fatalf("vertex %d rank %d, want positive", v, rank)
		}
		total += rank
	}
	// Total rank stays within a factor of the initial mass (damping leaks
	// a bounded amount with fixed-point truncation).
	if total < PRScale/4 || total > PRScale*4 {
		t.Fatalf("total rank %d drifted from %d", total, int64(PRScale))
	}
}

func TestGenerateDeterministicAndUndirected(t *testing.T) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	g1, raw1 := Generate(p, GenConfig{NV: 200, AvgDegree: 4, Seed: 3, Undirected: true, KeepRaw: true})
	p2 := m.NewProcess()
	_, raw2 := Generate(p2, GenConfig{NV: 200, AvgDegree: 4, Seed: 3, Undirected: true, KeepRaw: true})
	for u := range raw1.Adj {
		if len(raw1.Adj[u]) != len(raw2.Adj[u]) {
			t.Fatal("generation not deterministic")
		}
	}
	// Undirected: edge counts symmetric (u→v implies v→u).
	counts := map[[2]int32]int{}
	for u, nbrs := range raw1.Adj {
		for _, v := range nbrs {
			counts[[2]int32{int32(u), v}]++
		}
	}
	for k, c := range counts {
		if counts[[2]int32{k[1], k[0]}] != c {
			t.Fatalf("edge %v not mirrored", k)
		}
	}
	if g1.NE <= g1.NV {
		t.Fatal("suspiciously few edges")
	}
	if g1.Bytes() <= 0 {
		t.Fatal("Bytes")
	}
}

func TestEngineProfilesPhases(t *testing.T) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	g, _ := Generate(p, GenConfig{NV: 500, AvgDegree: 4, Seed: 1})
	eng := NewEngine(g, SSSP(0), 4)
	ex := profile.NewExec(sim.NewThread("g"), p, nil)
	eng.Run(ex)
	prof := ex.Profile()
	names := map[string]bool{}
	for _, o := range prof {
		names[o.Name] = true
	}
	for _, want := range []string{OpFinalize, OpGather, OpApply, OpScatter} {
		if !names[want] {
			t.Fatalf("phase %s missing from profile %v", want, prof)
		}
	}
	if eng.Iters == 0 {
		t.Fatal("no iterations ran")
	}
}

// TestSSSPIdenticalAcrossPlatforms: answers match across Linux, base DDC,
// and TELEPORT (pushing finalize+scatter+gather), and times order
// local < teleport < base.
func TestSSSPIdenticalAcrossPlatforms(t *testing.T) {
	build := func(cfg ddc.Config) (*Engine, *profile.Exec, *ddc.Process) {
		m := ddc.MustMachine(cfg)
		p := m.NewProcess()
		g, _ := Generate(p, GenConfig{NV: 20000, AvgDegree: 6, Seed: 11})
		eng := NewEngine(g, SSSP(0), 4)
		return eng, profile.NewExec(sim.NewThread("g"), p, nil), p
	}
	sum := func(eng *Engine, ex *profile.Exec) (int64, sim.Time) {
		eng.Run(ex)
		var s int64
		env := ex.Env
		for v := 0; v < eng.G.NV; v++ {
			if d := eng.Value(env, v); d < Inf {
				s += d
			}
		}
		return s, ex.Total()
	}
	cache := int64(128 * mem.PageSize)

	engL, exL, _ := build(ddc.Linux())
	sumL, tL := sum(engL, exL)

	engB, exB, _ := build(ddc.BaseDDC(cache))
	sumB, tB := sum(engB, exB)

	engT, exT, pT := build(ddc.BaseDDC(cache))
	exT.RT = core.NewRuntime(pT, 1)
	exT.Push(OpFinalize, OpScatter, OpGather)
	sumT, tT := sum(engT, exT)

	if sumL != sumB || sumL != sumT {
		t.Fatalf("answers differ: %d %d %d", sumL, sumB, sumT)
	}
	if !(tL < tT && tT < tB) {
		t.Fatalf("time ordering broken: local %v, teleport %v, base %v", tL, tT, tB)
	}
}

// TestAllAlgorithmsPushedMatchUnpushed: pushing finalize/scatter/gather must
// not change any algorithm's result.
func TestAllAlgorithmsPushedMatchUnpushed(t *testing.T) {
	algos := []struct {
		name       string
		prog       func() Program
		undirected bool
	}{
		{"sssp", func() Program { return SSSP(0) }, false},
		{"re", func() Program { return Reachability(0) }, false},
		{"cc", func() Program { return CC() }, true},
		{"pagerank", func() Program { return PageRank(5, 2000) }, false},
	}
	for _, a := range algos {
		sums := make([]int64, 2)
		for variant := 0; variant < 2; variant++ {
			m := ddc.MustMachine(ddc.BaseDDC(96 * mem.PageSize))
			p := m.NewProcess()
			g, _ := Generate(p, GenConfig{NV: 2000, AvgDegree: 5, Seed: 17, Undirected: a.undirected})
			eng := NewEngine(g, a.prog(), 3)
			var rt *core.Runtime
			if variant == 1 {
				rt = core.NewRuntime(p, 1)
			}
			ex := profile.NewExec(sim.NewThread(a.name), p, rt)
			if variant == 1 {
				ex.Push(OpFinalize, OpScatter, OpGather)
			}
			eng.Run(ex)
			env := ex.Env
			var sum int64
			for v := 0; v < g.NV; v++ {
				if d := eng.Value(env, v); d < Inf {
					sum += d * int64(v%97+1)
				}
			}
			sums[variant] = sum
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: pushed result differs (%d vs %d)", a.name, sums[0], sums[1])
		}
	}
}

func TestTinyGraphs(t *testing.T) {
	// Single vertex, no edges: SSSP terminates immediately with dist 0.
	eng, ex := localEngineFor([][]int32{nil}, [][]int32{nil}, SSSP(0))
	eng.Run(ex)
	if eng.Value(ex.Env, 0) != 0 {
		t.Fatal("lonely source must have distance 0")
	}
	// Two vertices, one edge.
	eng2, ex2 := localEngineFor([][]int32{{1}, nil}, [][]int32{{7}, nil}, SSSP(0))
	eng2.Run(ex2)
	if eng2.Value(ex2.Env, 1) != 7 {
		t.Fatalf("dist = %d, want 7", eng2.Value(ex2.Env, 1))
	}
	// Unreachable vertex stays at Inf.
	eng3, ex3 := localEngineFor([][]int32{nil, nil}, [][]int32{nil, nil}, SSSP(0))
	eng3.Run(ex3)
	if eng3.Value(ex3.Env, 1) != Inf {
		t.Fatal("unreachable vertex must stay at Inf")
	}
}

func TestEngineWorkerClamp(t *testing.T) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	g, _ := Generate(p, GenConfig{NV: 50, AvgDegree: 3, Seed: 4})
	eng := NewEngine(g, SSSP(0), 0) // clamped to 1
	if eng.Workers != 1 {
		t.Fatalf("Workers = %d", eng.Workers)
	}
	ex := profile.NewExec(sim.NewThread("g"), p, nil)
	eng.Run(ex) // must not panic with a single partition
}

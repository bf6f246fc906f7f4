package graph

// The paper's graph workloads (§7.1): SSSP, single-source reachability
// (RE), connected components (CC), and PageRank (§5.2 names gather as its
// bottleneck phase).

// SSSP returns the single-source shortest-path program from src.
func SSSP(src int) Program {
	return Program{
		Combine: CombineMin,
		Init: func(v int) (int64, bool) {
			if v == src {
				return 0, true
			}
			return Inf, false
		},
		Scatter: func(val, w, _ int64) int64 { return val + w },
		Apply: func(old, msg int64) (int64, bool) {
			if msg < old {
				return msg, true
			}
			return old, false
		},
	}
}

// Reachability returns the single-source reachability program (RE): a
// vertex's value converges to 0 if reachable from src, Inf otherwise.
func Reachability(src int) Program {
	return Program{
		Combine: CombineMin,
		Init: func(v int) (int64, bool) {
			if v == src {
				return 0, true
			}
			return Inf, false
		},
		Scatter: func(val, _, _ int64) int64 { return val },
		Apply: func(old, msg int64) (int64, bool) {
			if msg < old {
				return msg, true
			}
			return old, false
		},
	}
}

// CC returns the connected-components program (label propagation: every
// vertex converges to the minimum vertex id of its component). The graph
// must be undirected.
func CC() Program {
	return Program{
		Combine: CombineMin,
		Init:    func(v int) (int64, bool) { return int64(v), true },
		Scatter: func(val, _, _ int64) int64 { return val },
		Apply: func(old, msg int64) (int64, bool) {
			if msg < old {
				return msg, true
			}
			return old, false
		},
	}
}

// PRScale is the fixed-point scale for PageRank values.
const PRScale = 1 << 20

// PageRank returns a fixed-iteration PageRank program over fixed-point
// values: each vertex scatters rank/out-degree, and apply mixes with the
// 0.15/0.85 damping rule.
func PageRank(iters, nv int) Program {
	base := int64(PRScale / nv)
	if base == 0 {
		base = 1
	}
	return Program{
		Combine:  CombineSum,
		MaxIters: iters,
		Init:     func(v int) (int64, bool) { return base, true },
		Scatter: func(val, _, deg int64) int64 {
			if deg <= 0 {
				deg = 1
			}
			return val / deg
		},
		Apply: func(_, msg int64) (int64, bool) {
			return int64(float64(base)*0.15 + 0.85*float64(msg)), true
		},
	}
}

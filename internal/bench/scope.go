package bench

import (
	"sync"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// scope is what the data points of one entry-point call (Run, RunAll,
// RunWorkloads, Advise, RunCluster) share: each dataset they load, generated
// once, each distinct cell — a §7 workload, a microbenchmark run or one of
// Fig 20's pushdown calls — computed once, and the pages of simulated memory
// a cell that has ended leaves to the next. resolve creates it the way it
// creates the worker-token pool, Options carries it to every figure and leaf
// job, and it dies with the call — nothing outlives an entry point, so every
// call does the work the first did. A nil scope (options no entry point
// resolved) remembers nothing.
//
// What the data points of a scope share is frozen: a dataset is a mem.Image,
// attached copy-on-write to each cell's own process, plus the descriptor that
// says where its tables, CSR arrays or text lie, which no run writes to; a
// cell's result is read by every figure that names it and changed by none. A
// cell is still a pure function of what its key holds, which is what lets one
// stand for another. What they hand on is dead: a page in the arena belonged
// to a process that was released after its numbers were read, and the next
// process to draw it as a frame gets it zeroed.
type scope struct {
	mu       sync.Mutex
	datasets table[datasetKey, dataset]
	cells    table[cellKey, runOut]
	arena    mem.Arena
}

// table is the scope's memo of one kind of data point, by a key that names it
// by everything that computes it. Keys are comparable values, so the compiler
// keeps them complete: runSpec, the part of a cell's key a figure varies,
// holds no pointers, slices or closures.
type table[K comparable, V any] map[K]*entry[V]

type entry[V any] struct {
	once sync.Once
	v    V
}

// memo returns the data point k names in the table of s that tab picks: f's
// result, computed by the first data point of s to ask and read by every later
// one, which must not change it. A nil scope remembers nothing: f runs each
// time.
func memo[K comparable, V any](s *scope, tab func(*scope) *table[K, V], k K, f func() V) V {
	if s == nil {
		return f()
	}
	s.mu.Lock()
	t := tab(s)
	e := (*t)[k]
	if e == nil {
		if *t == nil {
			*t = table[K, V]{}
		}
		e = &entry[V]{}
		(*t)[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.v = f() })
	return e.v
}

// share makes p, a new process, draw its address space's pages from the
// scope's arena. Every process of the package is built through here; the ones
// that another data point can follow, a cell's, are released by run when its
// numbers have been read, which is what fills the arena. Never released: a
// dataset's builder, whose frames are the image's, and a process whose entry
// point ends with it (RunCluster's, DescribeDataset's).
func (s *scope) share(p *ddc.Process) *ddc.Process {
	if s != nil {
		p.Space.Share(&s.arena)
	}
	return p
}

// datasetKey names a dataset by everything its generator is given.
type datasetKey struct {
	kind       string  // "tpch", "graph" or "corpus"
	scale      float64 // tpch
	n          int     // graph vertices, corpus words
	seed       int64
	undirected bool // graph
}

// dataset is one generated dataset: the image of the address space it was
// generated into and its descriptor, bound to the process that generated it.
type dataset struct {
	img  *mem.Image
	desc any
}

// attach makes p, a process nothing has been allocated in yet, hold the
// dataset k names, and returns the dataset's descriptor for the caller to
// rebind to p. The first data point of the scope to ask generates the dataset
// with build, on a process of its own that is then thrown away — generation
// writes to the address space and to nothing else of a process
// (TestDatasetBuildTouchesOnlySpace), so the frozen space is all there is to
// keep — and every data point, the first included, attaches the image: p
// allocates on from the addresses the generator stopped at, as if it had
// generated the dataset itself.
func attach[D any](p *ddc.Process, opts Options, k datasetKey, build func(*ddc.Process) D) D {
	d := memo(opts.scope, func(s *scope) *table[datasetKey, dataset] { return &s.datasets }, k, func() dataset {
		b := opts.scope.share(ddc.MustMachine(ddc.Linux()).NewProcess())
		desc := build(b)
		return dataset{b.Space.Freeze(), desc}
	})
	p.Attach(d.img)
	return d.desc.(D)
}

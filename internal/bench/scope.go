package bench

import (
	"sync"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// scope is what the data points of one entry-point call (Run, RunAll,
// RunWorkloads, Advise, RunCluster) share: each dataset they load, generated
// once, each distinct timed cell, run once, and the pages of simulated memory
// a cell that has ended leaves to the next. resolve creates it the way it
// creates the worker-token pool, Options carries it to every figure and leaf
// job, and it dies with the call — nothing outlives an entry point, so every
// call does the work the first did. A nil scope (options no entry point
// resolved) remembers nothing.
//
// What the data points of a scope share is frozen: a dataset is a mem.Image,
// attached copy-on-write to each cell's own process, plus the descriptor that
// says where its tables, CSR arrays or text lie, which no run writes to; a
// timed cell's result is a number. A run is still a pure function of
// (workload, Options, runSpec), which is what lets one stand for another. What
// they hand on is dead: a page in the arena belonged to a process that was
// released after its numbers were read, and the next process to draw it as a
// frame gets it zeroed.
type scope struct {
	mu       sync.Mutex
	datasets map[datasetKey]*dataset
	cells    map[cellKey]*cell
	arena    mem.Arena
}

// share makes p, a new process, draw its address space's pages from the
// scope's arena. Every process of the package is built through here; the ones
// that another data point can follow (run, runMicro, Fig 20's method runs) are
// released when theirs has been read, which is what fills the arena. Never
// released: a dataset's builder, whose frames are the image's, and a process
// whose entry point ends with it (RunCluster's, DescribeDataset's).
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
	once sync.Once
	img  *mem.Image
	desc any
}

// cellKey names a timed cell by everything run is given; the workload by its
// name, which is its identity (workload.Name).
type cellKey struct {
	w    string
	opts Options
	spec runSpec
}

type cell struct {
	once sync.Once
	time sim.Time
}

func (s *scope) dataset(k datasetKey) *dataset {
	if s == nil {
		return &dataset{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.datasets[k]
	if d == nil {
		if s.datasets == nil {
			s.datasets = map[datasetKey]*dataset{}
		}
		d = &dataset{}
		s.datasets[k] = d
	}
	return d
}

func (s *scope) cell(k cellKey) *cell {
	if s == nil {
		return &cell{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cells[k]
	if c == nil {
		if s.cells == nil {
			s.cells = map[cellKey]*cell{}
		}
		c = &cell{}
		s.cells[k] = c
	}
	return c
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
	d := opts.scope.dataset(k)
	d.once.Do(func() {
		b := opts.scope.share(ddc.MustMachine(ddc.Linux()).NewProcess())
		d.desc = build(b)
		d.img = b.Space.Freeze()
	})
	p.Attach(d.img)
	return d.desc.(D)
}

package bench

import (
	"hash/fnv"
	"sync"
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/graph"
	"teleport/internal/mapreduce"
	"teleport/internal/mem"
	"teleport/internal/metrics"
	"teleport/internal/netmodel"
	"teleport/internal/profile"
	"teleport/internal/storage"
	"teleport/internal/tpch"
)

// smokeOpts are the repository benchmark's smoke sizes.
func smokeOpts() Options {
	return Options{Scale: 0.02, GraphNV: 600, Words: 2000, Seed: 1, CacheFrac: 0.02, Parallel: 1, SimWorkers: 1}
}

// scopeOf resolves opts as an entry point would and runs the figures in the
// scope it creates, which it returns.
func scopeOf(t *testing.T, opts Options, ids ...string) *scope {
	t.Helper()
	opts, err := opts.resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		figure(id)(opts)
	}
	return opts.scope
}

// kinds counts a scope's datasets by kind. A dataset of a scope is generated
// once (its sync.Once), so the count of a kind is how often that generator ran.
func (s *scope) kinds() map[string]int {
	n := map[string]int{}
	for k := range s.datasets {
		n[k.kind]++
	}
	return n
}

// TestDatasetBuiltOncePerEntryPoint counts generator invocations through the
// three constructors: a figure's cells share its datasets, and the figures of
// a RunAll share theirs — one build per distinct (kind, size, seed,
// directedness), where each cell used to generate its own.
func TestDatasetBuiltOncePerEntryPoint(t *testing.T) {
	opts := smokeOpts()
	if got := scopeOf(t, opts, "15").kinds(); got["tpch"] != 1 || len(got) != 1 {
		t.Errorf("figure 15 built %v, want one TPC-H database for its eleven cells", got)
	}
	if got := scopeOf(t, opts, "13").kinds(); got["tpch"] != 1 || got["graph"] != 2 || got["corpus"] != 1 {
		t.Errorf("figure 13 built %v, want 1 TPC-H database, 2 graphs (directed, undirected) and 1 corpus", got)
	}
	all := scopeOf(t, opts, Figures()...)
	// Scale (most figures), 4×scale (Fig 15) and scale/4 (A6, A7); a directed
	// and an undirected graph; one corpus.
	if got := all.kinds(); got["tpch"] != 3 || got["graph"] != 2 || got["corpus"] != 1 {
		t.Errorf("the suite built %v, want 3 TPC-H databases, 2 graphs and 1 corpus", got)
	}
	for k, d := range all.datasets {
		if d.v.img == nil || d.v.desc == nil {
			t.Errorf("dataset %+v was asked for but never built", k)
		}
	}

	// Nothing is kept between entry points: a second call builds again.
	if a, b := scopeOf(t, opts, "15"), scopeOf(t, opts, "15"); a == b {
		t.Error("two entry-point calls share a scope")
	}
}

// TestDataPointsRunOnce: equal cells of one scope — the microbenchmark's and
// Fig 20's pushdown calls among them — are one run; cells that differ in the
// workload (ParAgg's worker count, a microbenchmark's mode or parameters and
// a pushdown call's flags included), an option or any field of their key are
// not; and without a scope nothing is remembered.
func TestDataPointsRunOnce(t *testing.T) {
	opts, err := smokeOpts().resolve()
	if err != nil {
		t.Fatal(err)
	}
	builds := map[string]int{}
	probe := func(name string) workload {
		return workload{Name: name, Build: func(p *ddc.Process, opts Options) func(*profile.Exec) uint64 {
			builds[name]++
			a := p.Space.Alloc(8, "x")
			return func(ex *profile.Exec) uint64 {
				ex.Run("op", func(env *ddc.Env) { env.WriteU64(a, 1) })
				return 0
			}
		}}
	}
	w := probe("probe")
	first := cell(w, opts, runSpec{platform: platBase})()
	if again := cell(w, opts, runSpec{platform: platBase})(); again.Proc != first.Proc || builds["probe"] != 1 {
		t.Fatalf("an equal cell ran again: %d builds", builds["probe"])
	}
	other := opts
	other.CacheFrac = 0.5
	for i, c := range []struct {
		opts Options
		spec runSpec
	}{
		{opts, runSpec{platform: platTeleport}},
		{opts, runSpec{platform: platBase, prefetch: set(0)}},
		{opts, runSpec{platform: platBase, pushOps: pushing(nil)}},
		{opts, runSpec{platform: platBase, chaos: fault.Profile{Name: "probe", CtxCrashProb: 0.5}}},
		{other, runSpec{platform: platBase}},
	} {
		cell(w, c.opts, c.spec)()
		if builds["probe"] != 2+i {
			t.Fatalf("distinct cell %d did not run: %d builds", i, builds["probe"])
		}
	}
	cell(probe("probe2"), opts, runSpec{platform: platBase})()
	if builds["probe2"] != 1 {
		t.Fatal("a cell of another workload did not run")
	}

	// One entry is one run: memo computes an entry once.
	cells := len(opts.scope.cells)
	for range 2 {
		cell(parAgg(2), opts, runSpec{platform: platTeleport})()
		cell(parAgg(4), opts, runSpec{platform: platTeleport})()
	}
	if n := len(opts.scope.cells) - cells; n != 2 {
		t.Errorf("ParAgg at 2 and 4 workers, each asked twice, made %d cells, want 2", n)
	}
	cells = len(opts.scope.cells)
	mp := defaultMicro()
	mp.accesses = 100
	for range 2 {
		microCell(opts, microBase, mp)()
		cell(pushCall(core.FlagDefault), opts, runSpec{platform: platTeleport})()
	}
	if n := len(opts.scope.cells) - cells; n != 2 {
		t.Errorf("a microbenchmark and a pushdown-call cell, each asked twice, made %d cells, want 2", n)
	}
	microCell(opts, microLocal, mp)()
	mp.pso = true
	microCell(opts, microBase, mp)()
	cell(pushCall(core.FlagEagerSync), opts, runSpec{platform: platTeleport})()
	if n := len(opts.scope.cells) - cells; n != 5 {
		t.Errorf("distinct microbenchmark and pushdown-call cells made %d cells, want 5", n)
	}

	unresolved := smokeOpts()
	cell(w, unresolved, runSpec{platform: platBase})()
	cell(w, unresolved, runSpec{platform: platBase})()
	if builds["probe"] != 8 {
		t.Fatalf("cells of unresolved options: %d builds, want 8 (nothing remembered)", builds["probe"])
	}
}

// TestFiguresShareDataPoints: in one scope a figure reads the data points
// another has already run instead of running them again. Fig 10's cells are
// Fig 3's and Fig 1b's local ones are too; Fig 22's microbenchmark cells are
// Fig 21's; Figs 17 and A5 both run ParAgg on eight workers with two contexts
// on TELEPORT.
func TestFiguresShareDataPoints(t *testing.T) {
	opts := smokeOpts()
	if a, b := len(scopeOf(t, opts, "3", "1b").cells), len(scopeOf(t, opts, "3", "10", "1b").cells); a == 0 || b != a {
		t.Errorf("figures 3 and 1b made %d cells, with figure 10 %d: want no more", a, b)
	}
	if a, b := len(scopeOf(t, opts, "21").cells), len(scopeOf(t, opts, "21", "22").cells); a == 0 || b != a {
		t.Errorf("figure 21 made %d microbenchmark cells, with figure 22 %d: want no more", a, b)
	}
	n17, nA5 := len(scopeOf(t, opts, "17").cells), len(scopeOf(t, opts, "A5").cells)
	if both := len(scopeOf(t, opts, "17", "A5").cells); n17+nA5-both != 1 {
		t.Errorf("figures 17 and A5 made %d and %d cells apart and %d together: want one shared", n17, nA5, both)
	}
}

// TestDatasetBuildTouchesOnlySpace is what makes an image a complete
// description of a load: a generator writes to the address space of the
// process it is given and to nothing else — no virtual time is charged, nothing
// is counted, sent or read from the device, and no cache holds a page — on
// whatever machine the process is, so the one attach generates on stands for
// any. Attaching the result, which is what the constructors leave of a load in
// a cell's process, is held to the same.
func TestDatasetBuildTouchesOnlySpace(t *testing.T) {
	opts := smokeOpts()
	for _, build := range []struct {
		kind string
		on   func(p *ddc.Process)
	}{
		{"tpch", func(p *ddc.Process) { tpch.Load(coldb.NewDB(p), tpch.Config{Scale: opts.Scale, Seed: opts.Seed}) }},
		{"graph", func(p *ddc.Process) {
			graph.Generate(p, graph.GenConfig{NV: opts.GraphNV, AvgDegree: 6, Seed: opts.Seed})
		}},
		{"graph, undirected", func(p *ddc.Process) {
			graph.Generate(p, graph.GenConfig{NV: opts.GraphNV, AvgDegree: 6, Seed: opts.Seed, Undirected: true})
		}},
		{"corpus", func(p *ddc.Process) {
			mapreduce.GenerateCorpus(p, mapreduce.CorpusConfig{Words: opts.Words, Vocab: 4000, Seed: opts.Seed})
		}},
		{"tpch, attached", func(p *ddc.Process) { loadTPCH(p, opts) }},
		{"graph, attached", func(p *ddc.Process) { genGraph(p, opts, false) }},
		{"corpus, attached", func(p *ddc.Process) { genCorpus(p, opts) }},
	} {
		for _, cfg := range []ddc.Config{ddc.Linux(), ddc.LinuxSSD(64 << 10), ddc.BaseDDC(64 << 10)} {
			p := ddc.MustMachine(cfg).NewProcess()
			p.ResizePool(64 << 10)
			epoch := p.Epoch
			build.on(p)
			m := p.M
			switch {
			case p.Space.Pages() == 0:
				t.Errorf("%s: nothing was generated", build.kind)
			case *m.Obs.Times != metrics.TimeSet{}:
				t.Errorf("%s: generation charged virtual time: %v", build.kind, *m.Obs.Times)
			case p.Stats() != ddc.ProcStats{}:
				t.Errorf("%s: generation moved paging counters: %+v", build.kind, p.Stats())
			case m.Fabric.Total() != netmodel.Stat{}:
				t.Errorf("%s: generation sent over the fabric: %+v", build.kind, m.Fabric.Total())
			case m.SSD.Stats() != storage.Stats{}:
				t.Errorf("%s: generation touched the device: %+v", build.kind, m.SSD.Stats())
			case p.Cache != nil && p.Cache.Len() != 0, p.PoolRes != nil && p.PoolRes.Len() != 0:
				t.Errorf("%s: generation left pages in a cache", build.kind)
			case p.Epoch != epoch:
				t.Errorf("%s: generation moved the process epoch", build.kind)
			}
		}
	}
}

// imageHash reads an image through a space attached for the purpose.
func imageHash(img *mem.Image) uint64 {
	s := mem.NewSpace()
	s.Attach(img, nil)
	h := fnv.New64a()
	if first, last, ok := s.Extent(); ok {
		for pg := first; pg <= last; pg++ {
			h.Write(s.Frame(pg))
		}
	}
	return h.Sum64()
}

// TestImagesSurviveTheSuite: the figure suite, its data points fanned out over
// every host core, leaves each image exactly as it was frozen — nothing any
// cell did reached a frame another cell reads. Under -race the detector checks
// the same of every access the workers made.
func TestImagesSurviveTheSuite(t *testing.T) {
	opts := smokeOpts()
	opts.Parallel = 0
	opts, err := opts.resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Freeze every dataset the suite uses ahead of it, by the constructors'
	// own path, and note what it holds.
	frozen := map[datasetKey]uint64{}
	for _, scale := range []float64{opts.Scale, opts.Scale * 4, opts.Scale / 4} {
		o := opts
		o.Scale = scale
		loadTPCH(ddc.MustMachine(ddc.Linux()).NewProcess(), o)
	}
	genGraph(ddc.MustMachine(ddc.Linux()).NewProcess(), opts, false)
	genGraph(ddc.MustMachine(ddc.Linux()).NewProcess(), opts, true)
	genCorpus(ddc.MustMachine(ddc.Linux()).NewProcess(), opts)
	for k, d := range opts.scope.datasets {
		frozen[k] = imageHash(d.v.img)
	}

	var wg sync.WaitGroup
	for _, f := range figures {
		wg.Add(1)
		go func(r Runner) {
			defer wg.Done()
			r(opts)
		}(f.run)
	}
	wg.Wait()

	if len(opts.scope.datasets) != len(frozen) {
		t.Fatalf("the suite used %d datasets, %d were frozen ahead of it", len(opts.scope.datasets), len(frozen))
	}
	for k, d := range opts.scope.datasets {
		if got := imageHash(d.v.img); got != frozen[k] {
			t.Errorf("image %+v hashes to %#x after the suite, %#x when frozen", k, got, frozen[k])
		}
	}
}

// TestRunOutAnswersAfterRelease: run hands the process's memory on before it
// returns, and everything the figures and reports go on to read of runOut —
// the cache's residency (Ext A3), the machine (availability figures, reports),
// what the space allocated (Fig 1, the advisor), the runtime's counters —
// still answers. The bytes do not: they may be another cell's by now.
func TestRunOutAnswersAfterRelease(t *testing.T) {
	opts, err := smokeOpts().resolve()
	if err != nil {
		t.Fatal(err)
	}
	out := run(findWorkload("Q6"), opts, runSpec{platform: platTeleport})
	p := out.Proc
	if n, runs := p.Cache.Len(), p.Cache.AppendRuns(nil); n == 0 || len(runs) == 0 {
		t.Errorf("the cache reports %d resident pages in %d runs, want some", n, len(runs))
	}
	if p.Space.Allocated() == 0 || p.Space.Pages() == 0 {
		t.Errorf("the space reports %d bytes on %d pages, want the dataset's", p.Space.Allocated(), p.Space.Pages())
	}
	if p.M.Fabric.Total().Msgs == 0 || p.Stats().RemoteFaults == 0 || out.RT.Stats().Calls == 0 {
		t.Errorf("fabric messages %d, remote faults %d, pushdown calls %d: want all counted",
			p.M.Fabric.Total().Msgs, p.Stats().RemoteFaults, out.RT.Stats().Calls)
	}
	first, _, _ := p.Space.Extent()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reading the memory of a finished run's process did not panic")
			}
		}()
		p.Space.Frame(first)
	}()
}

// TestRunAllEqualOnRecycledPages: the whole suite on one arena renders the
// same tables whether each cell runs on the pages of the cell before it
// (Parallel: 1) or the cells of every figure draw from and release to the
// arena from all host cores at once (Parallel: 0, where which page a frame
// gets is a race the mutex settles). Under -race the detector checks that the
// free list is all they share.
func TestRunAllEqualOnRecycledPages(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suites in -short mode")
	}
	render := func(parallel int) []string {
		opts := smokeOpts()
		opts.Parallel = parallel
		tables, err := RunAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(tables))
		for i, tab := range tables {
			out[i] = renderTable(tab)
		}
		return out
	}
	seq, par := render(1), render(0)
	for i, id := range Figures() {
		if seq[i] != par[i] {
			t.Errorf("figure %s differs between Parallel 1 and 0:\n--- 1\n%s--- 0\n%s", id, seq[i], par[i])
		}
	}
}

// Package bench regenerates every table and figure of the paper's
// evaluation (§7, Figures 1, 3, 6, 7, 10–22). Each runner builds the
// platforms it compares — monolithic Linux, Linux with an NVMe swap path,
// the base DDC (LegoOS stand-in), and TELEPORT — runs the workload on each,
// and emits the same rows or series the paper reports. Absolute numbers
// reflect the scaled-down datasets; the shapes (who wins, by what factor,
// where crossovers fall) are the reproduction targets, recorded in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"

	"teleport/internal/core"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// Options holds the workload knobs shared by all figures.
type Options struct {
	// Scale is the TPC-H micro scale factor (lineitem = 60,000·Scale).
	Scale float64
	// GraphNV is the graph vertex count.
	GraphNV int
	// Words is the MapReduce corpus token count.
	Words int
	// Seed drives all generators.
	Seed int64
	// CacheFrac sizes the compute-local cache as a fraction of the loaded
	// working set (the paper's 1 GB against a 50 GB database ≈ 2%).
	CacheFrac float64
	// TraceCap, when positive, attaches an event ring of that capacity to
	// the machine (see internal/trace) and arms the flight recorder on it:
	// each degrade-class event (rollback, shed, breaker-open, shard-down,
	// fallback-local) snapshots the ring's last obs.DefaultIncidentEvents
	// events plus a counter delta into an incident record (see
	// internal/obs). RunWorkload returns the ring's contents, the incidents
	// and the virtual-time profile folded from the ring.
	TraceCap int

	// Metrics, when true, attaches a metrics registry to the machine;
	// RunWorkload returns its snapshot and the per-operation latency
	// percentiles read off its histograms. Recording costs no virtual time:
	// same-seed runs with either recorder on and off are bit-identical.
	Metrics bool

	// ChaosProfile names a fault-injection profile (see internal/fault;
	// "" or "none" disables injection). Faults perturb virtual time, never
	// answers: lost messages are retransmitted, failed reads re-read, and
	// pushdowns that hit a crash retry and then fall back to compute-side
	// execution.
	ChaosProfile string

	// ChaosSeed seeds the fault plan's RNG streams; 0 reuses Seed. Two runs
	// with the same options and chaos seed inject the identical fault
	// sequence and report bit-identical timings.
	ChaosSeed int64

	// PoolShards splits the disaggregated memory pool into this many
	// independent crash-domain shards (0 or 1 = single controller), and
	// Replicas keeps every page on that many shards so reads fail over to
	// a live replica during a single-shard outage (see internal/ddc).
	// Monolithic platforms ignore both.
	PoolShards int
	Replicas   int

	// WriteQuorum is W, the number of replica acks a page write needs to
	// commit on a replicated sharded pool; unreachable replicas get hinted
	// handoff records and failover reads detect and repair staleness via
	// version tags (see internal/ddc). 0 or 1 keeps the legacy synchronous
	// fan-out. Requires W ≤ Replicas.
	WriteQuorum int

	// Policy is the pushdown recovery policy every TELEPORT runtime starts
	// with (its workqueue cap, deadline, retries and breaker); nil means
	// core.DefaultPolicy(). Runs share the pointee and never write it.
	Policy *core.Policy

	// Parallel bounds how many figure data points simulate concurrently on
	// the host: 0 uses one worker per host core (GOMAXPROCS), 1 forces
	// sequential execution, n>1 uses n workers. Every run is hermetic, so
	// parallelism affects host wall-clock only — tables, virtual times and
	// counters are bit-identical at any setting (see parallel.go).
	Parallel int

	// SimWorkers bounds how many host goroutines drain the domains of one
	// multi-machine simulation (RunCluster) inside a conservative lookahead
	// window: 0 uses one worker per host core (GOMAXPROCS), 1 forces
	// sequential window draining, n>1 uses n workers. Like Parallel it is
	// host-only: virtual times are bit-identical at any setting, enforced
	// by TestParallelDeterminism.
	SimWorkers int

	// pool is the shared worker-token channel, chaos the looked-up
	// ChaosProfile (nil = no injection) and scope the datasets and data
	// points the call's figures share (scope.go), all set by resolve at
	// the entry points; Options is copied by value, so every figure and leaf
	// job sees the same channel, profile and scope.
	pool  chan struct{}
	chaos *fault.Profile
	scope *scope
}

// Defaults returns the options used by the committed EXPERIMENTS.md run.
func Defaults() Options {
	return Options{
		Scale:     2,
		GraphNV:   60000,
		Words:     250000,
		Seed:      1,
		CacheFrac: 0.02,
	}
}

// Table is one figure's regenerated output.
type Table struct {
	Figure string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Figure, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	// Rune count, not byte length: cell text may hold multi-byte runes
	// ("µs") and byte-width padding would misalign those columns.
	w := utf8.RuneCountInString(s)
	if w >= n {
		return s
	}
	return s + strings.Repeat(" ", n-w)
}

// Runner regenerates one figure.
type Runner func(opts Options) *Table

// figures is every figure the package regenerates, in the order Figures
// lists them and RunAll runs them all.
var figures = []struct {
	id  string
	run Runner
}{
	{"A2", figFabric}, {"A3", figRLE}, {"A4", figPrefetch}, {"A5", figWorkerScaling},
	{"A1", figAdvisor}, {"A6", figAvailability},
	{"10", fig10}, {"11", fig11}, {"19", fig19}, {"20", fig20},
	{"6", fig6}, {"7", fig7}, {"21", fig21}, {"22", fig22},
	{"1a", fig1a}, {"1b", fig1b}, {"3", fig3}, {"12", fig12}, {"13", fig13},
	{"A7", figPartition},
	{"14", fig14}, {"15", fig15}, {"16", fig16}, {"17", fig17}, {"18", fig18},
}

// figure returns the runner of figure id, nil when there is none.
func figure(id string) Runner {
	for _, f := range figures {
		if f.id == id {
			return f.run
		}
	}
	return nil
}

// Header is the first line of a figure-suite run — the knobs that shaped
// every table — as `ddcsim fig` prints it and experiments_run.txt records
// it. The pool topology appears only when set, so the default run's header
// stays the committed one.
func (o Options) Header() string {
	h := fmt.Sprintf("# ddcsim fig scale=%g graph-nv=%d words=%d seed=%d cache-frac=%g",
		o.Scale, o.GraphNV, o.Words, o.Seed, o.CacheFrac)
	for i, v := range []int{o.PoolShards, o.Replicas, o.WriteQuorum} {
		if v != 0 {
			h += fmt.Sprintf(" %s=%d", []string{"pool-shards", "replicas", "write-quorum"}[i], v)
		}
	}
	return h + "\n\n"
}

// Figures returns the figure ids in table order.
func Figures() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Run regenerates one figure by id.
func Run(id string, opts Options) (*Table, error) {
	tabs, err := RunAll(opts, id)
	if err != nil {
		return nil, err
	}
	return tabs[0], nil
}

// RunAll regenerates the figures ids names, in that order, or every figure
// when it names none; an unknown id is an error before anything runs. The
// figures share one scope, so a data point two of them read runs once. They
// execute concurrently when the options allow parallelism (their data points
// share one bounded worker pool), but the returned slice is always in ids'
// order, and every table is bit-identical to a sequential run.
func RunAll(opts Options, ids ...string) ([]*Table, error) {
	if len(ids) == 0 {
		ids = Figures()
	}
	for _, id := range ids {
		if figure(id) == nil {
			return nil, fmt.Errorf("bench: unknown figure %q (have %s)", id, strings.Join(Figures(), " "))
		}
	}
	opts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	out := make([]*Table, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		if opts.pool == nil {
			out[i] = figure(id)(opts)
			continue
		}
		wg.Add(1)
		go func(i int, r Runner, opts Options) {
			defer wg.Done()
			out[i] = r(opts)
		}(i, figure(id), opts)
	}
	wg.Wait()
	return out, nil
}

// cacheBytes sizes the compute cache for a working set, honouring a sane
// floor (a cache below a handful of pages is thrashing noise, not a
// platform).
func cacheBytes(workingSet int64, frac float64) int64 {
	return max(int64(float64(workingSet)*frac), 48*mem.PageSize)
}

// fm formats a virtual duration in seconds with 3 decimals.
func fm(t sim.Time) string { return fmt.Sprintf("%.4f", t.Seconds()) }

// fx formats a ratio like "12.3x".
func fx(r float64) string { return fmt.Sprintf("%.1fx", r) }

// ratio guards divide-by-zero.
func ratio(num, den sim.Time) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

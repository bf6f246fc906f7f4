package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"
)

// Host-performance reporting: how long the figure suite takes on the host,
// figure by figure, in real nanoseconds and heap allocations. This is the
// one place the bench package legitimately reads the wall clock — it
// measures the simulator, never the simulation (virtual-time answers are
// produced elsewhere and are independent of all of this).

// FigureHostStat is one figure's host cost.
type FigureHostStat struct {
	Figure  string `json:"figure"`
	WallNs  int64  `json:"wall_ns"`
	Mallocs uint64 `json:"mallocs"`
}

// HostReport is what teleport-bench -bench-out writes: the options that
// shaped the workloads, the parallelism the suite ran with, and the
// per-figure host costs. Cluster, when present, records the multi-machine
// workload's intra-run parallel scaling.
type HostReport struct {
	GoMaxProcs   int              `json:"gomaxprocs"`
	Workers      int              `json:"workers"`
	Scale        float64          `json:"scale"`
	GraphNV      int              `json:"graph_nv"`
	Words        int              `json:"words"`
	Seed         int64            `json:"seed"`
	TotalWallNs  int64            `json:"total_wall_ns"`
	TotalMallocs uint64           `json:"total_mallocs"`
	Figures      []FigureHostStat `json:"figures"`
	Cluster      *ClusterHostStat `json:"cluster,omitempty"`
}

// ClusterHostStat is the host cost of the multi-machine cluster workload
// (RunCluster) at one versus many sim workers. The virtual results of the
// two runs are verified identical before this is recorded; Speedup is
// bounded by GoMaxProcs — on a single-core host it sits at ~1.0 no matter
// how parallel the simulation is.
type ClusterHostStat struct {
	Machines   int     `json:"machines"`
	Rounds     int     `json:"rounds"`
	SimWorkers int     `json:"sim_workers"`
	SeqWallNs  int64   `json:"seq_wall_ns"`
	ParWallNs  int64   `json:"par_wall_ns"`
	Speedup    float64 `json:"speedup"`
}

// RunAllTimed regenerates every figure in registration order, timing each.
// Figures run one at a time so the wall-clock and allocation deltas are
// attributable, but each figure's data points still fan out across the
// worker pool per opts.Parallel.
func RunAllTimed(opts Options) ([]*Table, HostReport) {
	opts = opts.withPool()
	rep := HostReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workersFor(opts.Parallel),
		Scale:      opts.Scale,
		GraphNV:    opts.GraphNV,
		Words:      opts.Words,
		Seed:       opts.Seed,
	}
	tables := make([]*Table, 0, len(registryOrder))
	var before, after runtime.MemStats
	for _, id := range registryOrder {
		runtime.ReadMemStats(&before)
		start := time.Now() //lint:allow walltime host benchmark measures the simulator, not the simulation
		tbl := registry[id](opts)
		wall := time.Since(start) //lint:allow walltime host benchmark measures the simulator, not the simulation
		runtime.ReadMemStats(&after)
		tables = append(tables, tbl)
		rep.Figures = append(rep.Figures, FigureHostStat{
			Figure:  id,
			WallNs:  wall.Nanoseconds(),
			Mallocs: after.Mallocs - before.Mallocs,
		})
	}
	for _, f := range rep.Figures {
		rep.TotalWallNs += f.WallNs
		rep.TotalMallocs += f.Mallocs
	}
	if cl, err := timeCluster(opts); err == nil {
		rep.Cluster = cl
	}
	return tables, rep
}

// clusterBenchMachines/Rounds shape the timed multi-machine workload.
const (
	clusterBenchMachines = 8
	clusterBenchRounds   = 4
)

// timeCluster runs the multi-machine workload sequentially and then with
// the full worker complement, verifies the virtual results are identical,
// and reports both host walls. Figure totals exclude it.
func timeCluster(opts Options) (*ClusterHostStat, error) {
	seq := opts
	seq.SimWorkers = 1
	start := time.Now() //lint:allow walltime host benchmark measures the simulator, not the simulation
	r1, err := RunCluster(seq, clusterBenchMachines, clusterBenchRounds)
	if err != nil {
		return nil, err
	}
	seqWall := time.Since(start) //lint:allow walltime host benchmark measures the simulator, not the simulation
	par := opts
	if par.SimWorkers == 1 {
		par.SimWorkers = 0 // the point is to measure the parallel core
	}
	workers := workersFor(par.SimWorkers)
	start = time.Now() //lint:allow walltime host benchmark measures the simulator, not the simulation
	rn, err := RunCluster(par, clusterBenchMachines, clusterBenchRounds)
	if err != nil {
		return nil, err
	}
	parWall := time.Since(start) //lint:allow walltime host benchmark measures the simulator, not the simulation
	if !reflect.DeepEqual(r1, rn) {
		return nil, fmt.Errorf("bench: cluster virtual results diverged between 1 and %d sim workers", workers)
	}
	stat := &ClusterHostStat{
		Machines: clusterBenchMachines, Rounds: clusterBenchRounds,
		SimWorkers: workers,
		SeqWallNs:  seqWall.Nanoseconds(),
		ParWallNs:  parWall.Nanoseconds(),
	}
	if parWall > 0 {
		stat.Speedup = float64(seqWall) / float64(parWall)
	}
	return stat, nil
}

// WriteJSON writes the report as indented JSON.
func (r HostReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

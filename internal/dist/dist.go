// Package dist models the cost of scaling of distributed in-memory DBMSs —
// the SparkSQL and Vertica reference bars of Figure 1b. The paper uses them
// only as calibration points ("distributed data processing systems ...
// achieve a reasonable cost of scaling: 1.2× and 2.3×"), so this is an
// analytic model, not an engine: a query that takes T seconds on one
// monolithic server with R resources is spread over W workers that together
// also have R resources, paying per-worker inefficiency, shuffle transfer,
// and coordination overhead. DESIGN.md records this substitution.
package dist

import "teleport/internal/hw"

// Profile characterises one distributed engine.
type Profile struct {
	// Workers is the cluster size the resources are spread over.
	Workers int
	// Efficiency is the per-worker execution efficiency relative to the
	// monolithic engine (runtime layers, row formats, JVM, ...).
	Efficiency float64
	// ShuffleFraction is the fraction of the input that crosses the network
	// per pipeline stage.
	ShuffleFraction float64
	// Stages is the number of shuffle stages in a typical analytical query.
	Stages int
	// CoordFraction is planning/scheduling/stage-barrier overhead as a
	// fraction of execution time.
	CoordFraction float64
}

// SparkSQL returns a profile calibrated to the paper's 1.2× average cost of
// scaling on TPC-H.
func SparkSQL() Profile {
	return Profile{
		Workers:         8,
		Efficiency:      0.95,
		ShuffleFraction: 0.30,
		Stages:          3,
		CoordFraction:   0.04,
	}
}

// Vertica returns a profile calibrated to the paper's 2.3× average cost of
// scaling.
func Vertica() Profile {
	return Profile{
		Workers:         8,
		Efficiency:      0.55,
		ShuffleFraction: 0.45,
		Stages:          4,
		CoordFraction:   0.08,
	}
}

// Workload summarises a query for the model.
type Workload struct {
	// Bytes is the input working set.
	Bytes int64
	// LocalSeconds is the query's single-machine in-memory execution time
	// with the full resource budget.
	LocalSeconds float64
}

// CostOfScaling returns distributed_time / local_time for the workload on
// the given fabric. The normalisation matches Figure 1b: the cluster as a
// whole has the same resources as the monolithic baseline, so perfect
// scaling would be 1.0.
func (p Profile) CostOfScaling(w Workload, cfg *hw.Config) float64 {
	if w.LocalSeconds <= 0 {
		return 1
	}
	compute := 1 / p.Efficiency
	shuffleBytes := float64(w.Bytes) * p.ShuffleFraction * float64(p.Stages)
	// Workers shuffle in parallel; each link runs at the fabric bandwidth.
	shuffleSeconds := shuffleBytes / float64(p.Workers) / (cfg.NetBandwidthGBs * 1e9)
	return compute + shuffleSeconds/w.LocalSeconds + p.CoordFraction
}

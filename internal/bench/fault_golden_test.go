package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"teleport/internal/obs"
)

// faultGoldenRuns are the chaos runs whose fault reports are pinned in
// testdata/fault_reports.golden: between them they cross every availability
// path — link partitions and split-brain against quorum writes, whole-pool
// crash epochs with context crashes, and per-shard crash schedules with
// failover reads — so "the chaos artifacts did not move" is one short test
// instead of two chaos-soak runs diffed by hand.
var faultGoldenRuns = []struct {
	workload string
	opts     Options
}{
	{"SSSP", Options{GraphNV: 8000, ChaosProfile: "partition-chaos", PoolShards: 4, Replicas: 3, WriteQuorum: 2}},
	{"Q9", Options{Scale: 4, ChaosProfile: "chaos"}},
	{"Q6", Options{Scale: 8, ChaosProfile: "shard-flap", PoolShards: 4, Replicas: 2}},
	// The two runs CI's observability job greps.
	{"SSSP", Options{GraphNV: 8000, ChaosProfile: "shard-flap", PoolShards: 4, Replicas: 2}},
	{"Q6", Options{Scale: 8, ChaosProfile: "split-pool", PoolShards: 4, Replicas: 3, WriteQuorum: 2}},
}

// renderFaultGolden runs every faultGoldenRuns entry on teleport and renders
// what the golden file pins: virtual time, the fault report, the incident
// count per kind, and a hash over the incident records themselves (so a
// lazily-extended window counter that moves between incident deltas shows
// even when every total is unchanged).
func renderFaultGolden(t *testing.T) string {
	var b strings.Builder
	for _, g := range faultGoldenRuns {
		opts := g.opts
		opts.Seed, opts.ChaosSeed, opts.CacheFrac = 1, 7, 0.02
		opts.TraceCap = DefaultTraceCap
		opts.Parallel = 1
		res, err := RunWorkload(g.workload, "teleport", opts)
		if err != nil {
			t.Fatalf("RunWorkload(%s, %s): %v", g.workload, opts.ChaosProfile, err)
		}
		fmt.Fprintf(&b, "== %s on teleport, %s seed 7, shards=%d replicas=%d write-quorum=%d\n",
			g.workload, opts.ChaosProfile, opts.PoolShards, opts.Replicas, opts.WriteQuorum)
		fmt.Fprintf(&b, "virt_ns=%d\n%s\n", res.Nanos, res.Fault)
		kinds := map[string]int{}
		for _, inc := range res.Incidents {
			kinds[inc.Kind]++
		}
		names := make([]string, 0, len(kinds))
		for k := range kinds {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "incidents: total=%d retained=%d", res.IncidentsTotal, len(res.Incidents))
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%d", k, kinds[k])
		}
		var jsonl bytes.Buffer
		if err := obs.WriteIncidentsJSONL(&jsonl, res.Incidents); err != nil {
			t.Fatalf("WriteIncidentsJSONL: %v", err)
		}
		h := fnv.New64a()
		h.Write(jsonl.Bytes())
		fmt.Fprintf(&b, "\nincident-records-fnv64a=%016x\n\n", h.Sum64())
	}
	return b.String()
}

func TestFaultReportsMatchGolden(t *testing.T) {
	const path = "testdata/fault_reports.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if got := renderFaultGolden(t); got != string(want) {
		t.Fatalf("fault reports differ from %s (recorded at the commit before the one-schedule rewrite; "+
			"a difference means a schedule, a gate or a recovery path moved).\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

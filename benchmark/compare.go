package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict judges b against a for one end-to-end metric of one workload.
// worse is b's median against a's as a share of a's, positive when b is
// worse. A loss beyond the bound is a regression unless the two quartile
// ranges overlap, and a result inside the bound is only called so when
// neither side's own spread exceeds the bound; otherwise the runs cannot
// resolve the question, unless every sample of b beats every sample of a.
func verdict(def metricDef, a, b metricValue) (worse float64, v string) {
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if a.Median != 0 {
		worse = sign * (b.Median - a.Median) / math.Abs(a.Median)
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	allBetter := len(a.Samples) > 0 && len(b.Samples) > 0
	for _, x := range b.Samples {
		for _, y := range a.Samples {
			if sign*(x-y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > def.Bound && !overlap:
		return worse, "regressed"
	case worse > def.Bound:
		return worse, "unresolved"
	case allBetter, worse < 0 && !overlap:
		return worse, "improved"
	case a.spread() > def.Bound || b.spread() > def.Bound:
		return worse, "unresolved"
	default:
		return worse, "within-bound"
	}
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(buf, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles prints b against a: a verdict per workload × end-to-end
// metric, any exact result that moved, then the per-layer deltas. It
// reports whether anything regressed or moved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Sizes != b.Sizes || a.Seed != b.Seed {
		fmt.Fprintf(w, "note: inputs differ (sizes %s/%s, seed %d/%d): exact results are not comparable\n", a.Sizes, b.Sizes, a.Seed, b.Seed)
	}
	byName := make(map[string]workloadReport)
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-10s %-14s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "a.median", "b.median", "a.iqr%", "b.iqr%", "worse%", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, def := range endToEndMetrics {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			worse, v := verdict(def, ma, mb)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(w, "%-10s %-14s %12.6g %12.6g %8.1f %8.1f %+8.1f  %s\n",
				wa.Name, def.Name, ma.Median, mb.Median, 100*ma.spread(), 100*mb.spread(), 100*worse, v)
		}
		if wb.OpsFailed > 0 {
			bad = true
			fmt.Fprintf(w, "%-10s ops_failed=%d in b\n", wa.Name, wb.OpsFailed)
		}
		if a.Sizes == b.Sizes && a.Seed == b.Seed {
			for i, ra := range wa.Runs {
				if i < len(wb.Runs) && ra != wb.Runs[i] {
					bad = true
					fmt.Fprintf(w, "%-10s exact result moved: %s virt_ns %d → %d, answer %s → %s\n",
						wa.Name, ra.Name, ra.VirtNs, wb.Runs[i].VirtNs, ra.Answer, wb.Runs[i].Answer)
				}
			}
		}
	}
	fmt.Fprintf(w, "\nper-layer deltas (b against a; unchanged values omitted)\n")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, def := range perLayerMetrics {
			va, vb := wa.PerLayer[def.Name].Value, wb.PerLayer[def.Name].Value
			if va == vb {
				continue
			}
			delta := "n/a"
			if va != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(vb-va)/math.Abs(va))
			}
			fmt.Fprintf(w, "%-10s %-32s %14.6g %14.6g %-6s %s\n", wa.Name, def.Name, va, vb, def.Unit, delta)
		}
	}
	return bad, nil
}

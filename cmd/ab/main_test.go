package main

import (
	"fmt"
	"strings"
	"testing"
)

// The summary of canned result lines: medians, quartiles, delta, wins and
// the unresolved mark, with no process started.
func TestSummarizeCannedResults(t *testing.T) {
	line := func(hostS, mallocs, mb float64) string {
		return fmt.Sprintf("  host_s 0.1 s\n{\"correct\":true,\"attempted\":48,\"failed\":0,\"metrics\":{"+
			"\"host_s\":{\"value\":%g,\"unit\":\"s\"},\"host_mallocs\":{\"value\":%g,\"unit\":\"count\"},"+
			"\"host_alloc_mb\":{\"value\":%g,\"unit\":\"MB\"}}}\n", hostS, mallocs, mb)
	}
	parse := func(out string) result {
		r, err := parseResult(out)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// host_s: the change wins three pairs of four, and the quartile ranges
	// overlap. host_mallocs: equal in every pair, so no wins and no spread.
	// host_alloc_mb: a higher-is-better metric the change loses.
	parent := []result{parse(line(0.30, 100, 5)), parse(line(0.32, 100, 5)), parse(line(0.31, 100, 5)), parse(line(0.33, 100, 5))}
	change := []result{parse(line(0.27, 100, 4)), parse(line(0.28, 100, 4)), parse(line(0.32, 100, 4)), parse(line(0.29, 100, 4))}
	metrics := []metric{{"host_s", "s", "lower"}, {"host_mallocs", "count", "lower"}, {"host_alloc_mb", "MB", "higher"}}
	var b strings.Builder
	summarize(&b, metrics, parent, change)
	rows := map[string]string{}
	for _, l := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			rows[f[0]] = l
		}
	}
	for name, want := range map[string][]string{
		// parent sorted 0.30 0.31 0.32 0.33: q1 0.3025, median 0.315, q3 0.3275;
		// change sorted 0.27 0.28 0.29 0.32: q1 0.2725, median 0.285, q3 0.3125.
		"host_s":        {"0.315 [0.3025–0.3275]", "0.285 [0.2725–0.3125]", "-9.5 %", "3/4", "unresolved"},
		"host_mallocs":  {"100 [100–100]", "+0.0 %", "0/4", "equal"},
		"host_alloc_mb": {"5 [5–5]", "4 [4–4]", "-20.0 %", "0/4"},
		"parent:":       {"4 runs, 0 of 192 operations failed"},
	} {
		for _, w := range want {
			if !strings.Contains(rows[name], w) {
				t.Errorf("%s row %q lacks %q", name, rows[name], w)
			}
		}
	}
	if strings.Contains(rows["host_alloc_mb"], "unresolved") {
		t.Errorf("disjoint quartile ranges marked unresolved: %q", rows["host_alloc_mb"])
	}

	// Apart ranges: every change run below every parent run.
	change[2] = parse(line(0.26, 100, 4))
	b.Reset()
	summarize(&b, metrics[:1], parent, change)
	if s := b.String(); strings.Contains(s, "unresolved") || !strings.Contains(s, "4/4") {
		t.Errorf("a change that wins every pair by more than the spread:\n%s", s)
	}
}

func TestParseResultNeedsAResultLine(t *testing.T) {
	if _, err := parseResult("  host_s 0.1 s\n"); err == nil {
		t.Fatal("output with no JSON line parsed")
	}
}

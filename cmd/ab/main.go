// Command ab compares the working tree with a parent revision on one
// workload of the repository benchmark, in ABBA order:
//
//	go run ./cmd/ab <parent-rev> <workload> <pairs> [seed]
//	make ab PARENT=<rev> W=<workload> N=<pairs> [SEED=<s>]
//
// Run it from the repository root. It exports the parent revision into a
// temporary directory (git archive), builds ./benchmark there and from the
// working tree, and runs the two binaries with --workload W --seed S
// --seconds 10 --trace 0, pairs times each, alternating which runs first:
// parent then change, change then parent, and so on, so that a drift of the
// host's speed falls on both sides alike. The temporary directory is removed
// afterwards.
//
// For each end-to-end metric BENCHMARK.json declares it prints both sides'
// medians over the runs with their quartiles (q1–q3), the change's delta
// from the parent's median, and the pairs the change won (a pair is won when
// the change's run is better than the parent's run of that pair). A metric
// whose two quartile ranges overlap is marked unresolved: its delta is inside
// the spread the host gives either side on its own. One that reads the same
// on both sides, with no spread, is marked equal.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// spec is what ab reads of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric: its name in a result line, its unit, and
// which direction is better ("lower" or "higher").
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the JSON line a --workload run of the benchmark prints last.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(args []string) error {
	if len(args) < 3 || len(args) > 4 {
		return errors.New("usage: ab <parent-rev> <workload> <pairs> [seed]")
	}
	parentRev, workload := args[0], args[1]
	pairs, err := strconv.Atoi(args[2])
	if err != nil || pairs < 1 {
		return fmt.Errorf("pairs must be a positive integer, got %q", args[2])
	}
	seed := "1"
	if len(args) == 4 && args[3] != "" {
		seed = args[3]
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%v (run ab from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Contains(names, workload) {
		return fmt.Errorf("unknown workload %q; BENCHMARK.json lists %s", workload, strings.Join(names, ", "))
	}

	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	parentDir := filepath.Join(tmp, "parent")
	if err := export(parentRev, parentDir); err != nil {
		return err
	}
	bins := [2]string{filepath.Join(tmp, "parent.bin"), filepath.Join(tmp, "change.bin")}
	dirs := [2]string{parentDir, "."}
	for i, bin := range bins {
		if err := command(dirs[i], nil, "go", "build", "-o", bin, "./benchmark"); err != nil {
			return fmt.Errorf("building %s: %v", dirs[i], err)
		}
	}

	var sides [2][]result
	for p := 0; p < pairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			var out bytes.Buffer
			// The benchmark exits non-zero when a check fails; its result
			// line still says how many, so the run counts either way.
			cerr := command(dirs[side], &out, bins[side], "--workload", workload, "--seed", seed, "--seconds", "10", "--trace", "0")
			r, err := parseResult(out.String())
			if err != nil {
				return fmt.Errorf("pair %d, %s: %v (exit: %v)", p+1, sideName[side], err, cerr)
			}
			sides[side] = append(sides[side], r)
			fmt.Fprintf(os.Stderr, "pair %d/%d %s: %s\n", p+1, pairs, sideName[side], brief(sp.EndToEnd, r))
		}
	}
	fmt.Printf("%s, seed %s, %d ABBA pairs: %s (parent) against the working tree (change)\n", workload, seed, pairs, parentRev)
	summarize(os.Stdout, sp.EndToEnd, sides[0], sides[1])
	return nil
}

var sideName = [2]string{"parent", "change"}

// export writes the tree of git revision rev into dir.
func export(rev, dir string) error {
	tarball := dir + ".tar"
	if err := command(".", nil, "git", "archive", "--format=tar", "-o", tarball, rev); err != nil {
		return fmt.Errorf("git archive %s: %v", rev, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return command(".", nil, "tar", "-xf", tarball, "-C", dir)
}

// command runs name in dir with stdout to out (os.Stderr when nil) and
// stderr to os.Stderr.
func command(dir string, out io.Writer, name string, args ...string) error {
	c := exec.Command(name, args...)
	c.Dir, c.Stdout, c.Stderr = dir, out, os.Stderr
	if out == nil {
		c.Stdout = os.Stderr
	}
	return c.Run()
}

// parseResult decodes the last line of a run's output that holds a JSON
// object.
func parseResult(out string) (result, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if line := strings.TrimSpace(lines[i]); strings.HasPrefix(line, "{") {
			var r result
			err := json.Unmarshal([]byte(line), &r)
			return r, err
		}
	}
	return result{}, errors.New("no result line in the output")
}

// brief is one run's end-to-end metrics on one line.
func brief(metrics []metric, r result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "failed %d/%d", r.Failed, r.Attempted)
	for _, m := range metrics {
		fmt.Fprintf(&b, " %s=%.6g", m.Name, r.Metrics[m.Name].Value)
	}
	return b.String()
}

// summarize prints, for each metric, both sides' medians and quartiles, the
// delta of the medians, the pairs the change won, and whether the quartile
// ranges overlap. parent[i] and change[i] are pair i's runs.
func summarize(w io.Writer, metrics []metric, parent, change []result) {
	for i, side := range [2][]result{parent, change} {
		failed, attempted := 0, 0
		for _, r := range side {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
		fmt.Fprintf(w, "%s: %d runs, %d of %d operations failed\n", sideName[i], len(side), failed, attempted)
	}
	fmt.Fprintf(w, "%-14s %-8s %-30s %-30s %9s %6s\n", "metric", "unit", "parent median [q1–q3]", "change median [q1–q3]", "delta", "wins")
	for _, m := range metrics {
		a, b := values(parent, m.Name), values(change, m.Name)
		aq1, amed, aq3 := quartiles(a)
		bq1, bmed, bq3 := quartiles(b)
		wins := 0
		for i := range a {
			if m.Better == "higher" && b[i] > a[i] || m.Better != "higher" && b[i] < a[i] {
				wins++
			}
		}
		delta := "n/a"
		if amed != 0 {
			delta = fmt.Sprintf("%+.1f %%", 100*(bmed-amed)/math.Abs(amed))
		}
		verdict := ""
		switch {
		case aq1 == aq3 && bq1 == bq3 && amed == bmed:
			verdict = "equal"
		case aq1 <= bq3 && bq1 <= aq3:
			verdict = "unresolved"
		}
		fmt.Fprintf(w, "%-14s %-8s %-30s %-30s %9s %6s  %s\n", m.Name, m.Unit,
			fmt.Sprintf("%.6g [%.6g–%.6g]", amed, aq1, aq3),
			fmt.Sprintf("%.6g [%.6g–%.6g]", bmed, bq1, bq3),
			delta, fmt.Sprintf("%d/%d", wins, len(a)), verdict)
	}
}

func values(rs []result, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

// quartiles returns the three cut points of v by the rule of Python's
// statistics.quantiles(v, n=4) (exclusive method), the rule the benchmark
// prints its own quartiles by. One value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := min(max(int(math.Floor(pos)), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return cut(1), cut(2), cut(3)
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// fig3Rows reads the coldb rows of Figure 3 from the committed experiment
// log: workload → [local(s), ddc(s)] as printed.
func fig3Rows(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open("../experiments_run.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[string][2]string)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== Fig 3:"):
			in = true
		case in && strings.HasPrefix(line, "=="):
			in = false
		case in:
			if f := strings.Fields(line); len(f) == 5 && f[0] == "coldb" {
				rows[f[1]] = [2]string{f[2], f[3]}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// The olap workload runs Figure 3's database points (scale 2, seed 1, 2%
// cache), so its golden simulated seconds must be the rows the committed
// experiments_run.txt prints, to the 4 decimals it prints.
func TestGoldenMatchesExperimentsRun(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	header, err := os.ReadFile("../experiments_run.txt")
	if err != nil {
		t.Fatal(err)
	}
	sz := fullSizes()
	if want := fmt.Sprintf("scale=%g ", sz.olapScale); !strings.Contains(strings.SplitN(string(header), "\n", 2)[0], want) || g.Seed != 1 {
		t.Fatalf("experiments_run.txt was not recorded at %sseed=1; the olap sizes no longer match it", want)
	}
	virt := make(map[string]int64)
	for _, r := range g.Sizes["full"]["olap"] {
		virt[r.Name] = r.VirtNs
	}
	rows := fig3Rows(t)
	if len(rows) != 3 {
		t.Fatalf("found %d coldb rows in Fig 3 of experiments_run.txt, want 3", len(rows))
	}
	for _, q := range queries {
		row, ok := rows[q.name]
		if !ok {
			t.Errorf("Fig 3 has no row for %s", q.name)
			continue
		}
		for i, plat := range []string{"local", "base-ddc"} {
			ns, ok := virt[q.name+"/"+plat]
			if !ok {
				t.Errorf("golden.json has no olap run %s/%s", q.name, plat)
				continue
			}
			if got := fmt.Sprintf("%.4f", float64(ns)/1e9); got != row[i] {
				t.Errorf("%s on %s: golden.json says %s s, experiments_run.txt Fig 3 says %s s", q.name, plat, got, row[i])
			}
		}
	}
}

// golden.json holds one record per run of every workload at both size sets,
// and the two size sets name the same runs except for the suite's figures.
func TestGoldenShape(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads() {
		full, smoke := g.Sizes["full"][w.name], g.Sizes["smoke"][w.name]
		if len(full) == 0 || len(smoke) == 0 {
			t.Errorf("%s: missing from golden.json", w.name)
			continue
		}
		if w.name == "suite" {
			continue
		}
		if len(full) != len(smoke) {
			t.Errorf("%s: %d full runs, %d smoke runs", w.name, len(full), len(smoke))
			continue
		}
		for i := range full {
			if full[i].Name != smoke[i].Name {
				t.Errorf("%s run %d: %s at full size, %s at smoke size", w.name, i, full[i].Name, smoke[i].Name)
			}
		}
	}
}

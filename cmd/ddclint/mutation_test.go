package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"teleport/internal/analysis"
	"teleport/internal/analysis/load"
)

// A mutant plants one analyzer's violation in a copy of a real package of
// this module: the clean tree passes every analyzer, so the one report the
// copy draws is the planted one.
type mutant struct {
	analyzer string
	pkg      string   // module-relative directory of the package copied
	file     string   // the file the plant edits
	plant    []string // old, new pairs; each old occurs exactly once in file
	at       string   // text on the line the report must anchor to
	want     string   // regexp the report's message must match
}

var mutants = []mutant{{
	analyzer: "walltime",
	pkg:      "internal/netmodel", file: "fabric.go",
	plant: []string{
		`"fmt"` + "\n", `"fmt"` + "\n\t\"time\"\n",
		"t.AdvanceNs(backoff)", "t.AdvanceNs(backoff + float64(time.Now().UnixNano()%100))",
	},
	at:   "time.Now().UnixNano()",
	want: `^wall-clock time\.Now breaks same-seed reproducibility`,
}, {
	analyzer: "seededrand",
	pkg:      "internal/storage", file: "ssd.go",
	plant: []string{
		"import (\n", "import (\n\t\"math/rand\"\n\n",
		"d.inj.SSDReadError()", "rand.Intn(100) == 0",
	},
	at:   "rand.Intn(100) == 0",
	want: `^rand\.Intn .*unseeded global source`,
}, {
	analyzer: "maporder",
	pkg:      "internal/bench", file: "bench.go",
	plant: []string{
		"\tfor _, n := range t.Notes {\n",
		"\tseen := map[string]bool{}\n\tfor _, n := range t.Notes {\n\t\tseen[n] = true\n\t}\n\tfor n := range seen {\n",
	},
	at:   "for n := range seen {",
	want: `^map iteration order is random: this loop calls fmt\.Fprintf per key`,
}, {
	analyzer: "nilsafeobs",
	pkg:      "internal/trace", file: "span.go",
	plant: []string{
		"\tif tr == nil || tr.Ring == nil {\n\t\treturn\n\t}\n", "\tif tr.Ring == nil {\n\t\treturn\n\t}\n",
	},
	at:   "func (tr *Tracer) Instant(",
	want: `^exported method \(\*Tracer\)\.Instant must begin with a nil-receiver guard`,
}, {
	analyzer: "virtualclock",
	pkg:      "internal/trace", file: "span.go",
	plant: []string{
		"d := t.Now() - sp.start", "d := sim.Time(int64(t.Now()) - int64(sp.start))",
	},
	at:   "int64(t.Now()) - int64(sp.start)",
	want: `^both operands strip a virtual-clock type \(sim\.Time, sim\.Time\)`,
}, {
	analyzer: "errcmp",
	pkg:      "internal/core", file: "runtime.go",
	plant: []string{
		"if !errors.Is(err, f.err) ||", "if err != f.err ||",
	},
	at:   "if err != f.err ||",
	want: `^error compared with !=`,
}, {
	analyzer: "spanbalance",
	pkg:      "internal/storage", file: "ssd.go",
	plant: []string{
		"\td.obs.End(t, sp)\n}\n\n// WritePage", "\tif !seq {\n\t\td.obs.End(t, sp)\n\t}\n}\n\n// WritePage",
	},
	at:   "d.obs.Begin(t, trace.KindSSDRead",
	want: `^span opened here is not ended on every exit path`,
}, {
	analyzer: "confine",
	pkg:      "internal/bench", file: "parallel.go",
	plant: []string{
		`"sync"` + "\n", `"sync"` + "\n\n\t\"teleport/internal/sim\"\n",
		"\tvar wg sync.WaitGroup\n", "\tvar wg sync.WaitGroup\n\tth := sim.NewThread(\"parmap\")\n",
		"\t\t\tdefer wg.Done()\n", "\t\t\tdefer wg.Done()\n\t\t\t_ = th.Now()\n",
	},
	at:   "_ = th.Now()",
	want: `^goroutine closure captures mutable simulator state \("th", sim\.Thread\)`,
}}

// TestEveryAnalyzerCatchesAPlantedViolation runs each registered analyzer on
// a copy of real code with its violation planted, under a fresh import path,
// and expects exactly the planted report. An analyzer without a mutant, or a
// mutant naming no registered analyzer, fails the test.
func TestEveryAnalyzerCatchesAPlantedViolation(t *testing.T) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	covered := make(map[string]bool)
	for _, m := range mutants {
		if byName[m.analyzer] == nil {
			t.Errorf("mutant for %s, which ddclint does not register", m.analyzer)
		}
		covered[m.analyzer] = true
	}
	for _, a := range analyzers {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutant: nothing shows it catches anything in this tree", a.Name)
		}
	}
	if t.Failed() {
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := load.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	sess := load.NewSession(root)
	for _, m := range mutants {
		t.Run(m.analyzer, func(t *testing.T) {
			a := byName[m.analyzer]
			if f := a.DefaultFilter; f != nil && !f("teleport/"+m.pkg) {
				t.Fatalf("%s does not check %s: the plant would never be reported", m.analyzer, m.pkg)
			}
			dir, src := copyWithPlant(t, filepath.Join(root, m.pkg), m)
			pkg, err := sess.CheckFixture(dir, "mutant/"+m.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := analysis.Run(a, pkg.Files, pkg.Info)
			if err != nil {
				t.Fatal(err)
			}
			diags = analysis.FilterAllowed(sess.Fset, diags, analysis.CollectAllows(sess.Fset, pkg.Files),
				map[string]bool{a.Name: true}, nil)
			if len(diags) != 1 {
				for _, d := range diags {
					t.Logf("%s: %s", sess.Fset.Position(d.Pos), d.Message)
				}
				t.Fatalf("%d reports, want exactly the planted one", len(diags))
			}
			pos := sess.Fset.Position(diags[0].Pos)
			line := strings.Split(src, "\n")[pos.Line-1]
			if filepath.Base(pos.Filename) != m.file || !strings.Contains(line, m.at) {
				t.Errorf("report at %s (%q), want the line of %s holding %q", pos, strings.TrimSpace(line), m.file, m.at)
			}
			if !regexp.MustCompile(m.want).MatchString(diags[0].Message) {
				t.Errorf("report %q does not match %q", diags[0].Message, m.want)
			}
		})
	}
}

// copyWithPlant copies the non-test Go files of dir into a temporary
// directory, planting m in its file, and returns the directory and the
// planted file's source.
func copyWithPlant(t *testing.T, dir string, m mutant) (string, string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out, planted := t.TempDir(), ""
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		if filepath.Base(name) == m.file {
			for i := 0; i < len(m.plant); i += 2 {
				if n := strings.Count(src, m.plant[i]); n != 1 {
					t.Fatalf("%s holds %q %d times, want once: the plant no longer fits the code", m.file, m.plant[i], n)
				}
				src = strings.Replace(src, m.plant[i], m.plant[i+1], 1)
			}
			planted = src
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(name)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if planted == "" {
		t.Fatalf("%s has no file %s", m.pkg, m.file)
	}
	return out, planted
}

// Package analysistest runs a single analyzer over fixture packages and
// checks its diagnostics against // want expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest without the dependency.
//
// Fixtures live under a GOPATH-style source root (testdata/src/<pkg>);
// they are parsed and type-checked for real — fixture imports resolve
// first against sibling fixture packages, then against the standard
// library and the module — so analyzers see exactly the type information
// they get in production. A comment of the form
//
//	// want "regexp" "another regexp"
//
// expects one diagnostic per pattern on that line, matched against the
// diagnostic message; unexpected and missing diagnostics both fail the
// test. The //lint:allow filter runs before matching, so fixtures
// exercise the escape hatch too.
package analysistest

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"teleport/internal/analysis"
	"teleport/internal/analysis/load"
)

var (
	sessOnce sync.Once
	sess     *load.Session
	sessErr  error
)

// session returns the process-wide loader session (the standard library
// is type-checked once per test binary).
func session() (*load.Session, error) {
	sessOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			sessErr = err
			return
		}
		root, err := load.ModuleRoot(wd)
		if err != nil {
			sessErr = err
			return
		}
		sess = load.NewSession(root)
	})
	return sess, sessErr
}

// TestData returns the absolute path of the shared fixture root,
// internal/analysis/testdata/src, resolved relative to the calling
// analyzer package's directory.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// Run analyzes each fixture package (a directory name under srcdir) with
// a and reports expectation mismatches through t.
func Run(t *testing.T, srcdir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	s, err := session()
	if err != nil {
		t.Fatal(err)
	}
	s.FixtureRoot = srcdir
	for _, name := range pkgs {
		pkg, err := s.CheckFixture(filepath.Join(srcdir, name), name)
		if err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		diags, err := analysis.Run(a, pkg.Files, pkg.Info)
		if err != nil {
			t.Fatalf("fixture %s: analyzer: %v", name, err)
		}
		allows := analysis.CollectAllows(s.Fset, pkg.Files)
		// known is nil: shared fixtures carry allows for other analyzers
		// in the suite, which a single-analyzer harness cannot name.
		diags = analysis.FilterAllowed(s.Fset, diags, allows, map[string]bool{a.Name: true}, nil)
		check(t, s, pkg.Files, name, diags)
	}
}

// want is one expectation: a pattern at a file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// wantRE extracts the quoted patterns of a want comment: double-quoted
// Go strings or backquoted raw strings.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func check(t *testing.T, s *load.Session, files []*ast.File, fixture string, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := s.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pat := q
					if q[0] == '"' {
						var err error
						if pat, err = strconv.Unquote(q); err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
					} else {
						pat = q[1 : len(q)-1]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := s.Fset.Position(d.Pos)
		if w := match(wants, pos.Filename, pos.Line, d.Message); w != nil {
			w.met = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic at %s:%d: %s (%s)",
			fixture, filepath.Base(pos.Filename), pos.Line, d.Message, d.Analyzer.Name)
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none",
				fixture, w.re, filepath.Base(w.file), w.line)
		}
	}
}

func match(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if !w.met && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

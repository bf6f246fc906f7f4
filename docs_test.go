package teleport_test

import (
	"go/ast"
	"go/types"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles describe the code as it is. CHANGES.md and ROADMAP.md are history
// and plans, so they may name code that is gone or not yet written.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	// codeSpan is one inline code span; fenced blocks are blanked first.
	codeSpan = regexp.MustCompile("`[^`]+`")
	// pkgRef is the head of a span that names pkg.Exported, optionally
	// followed by .Member segments. A lowercase second segment is a metric
	// name (fault.remote.ns) and does not match.
	pkgRef  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)((?:\.\w+)*)`)
	testRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// pathRef is the head of a span that names a path in the module.
	pathRef = regexp.MustCompile(`^(?:internal|cmd)/\S*`)
)

// TestDocsNameOnlyWhatExists fails on a code span in the docs that names a
// package-level object, field or method the type checker cannot find, a
// Test/Benchmark/Fuzz function no _test.go file declares, or a path under
// internal/ or cmd/ that does not exist.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	pkgs, testFiles := loadModule(t)
	byName := map[string]*types.Package{}
	for _, p := range pkgs {
		if p.Types.Name() != "main" {
			byName[p.Types.Name()] = p.Types
		}
	}
	testFuncs := map[string]bool{}
	for _, f := range testFiles {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				testFuncs[fd.Name.Name] = true
			}
		}
	}

	for _, file := range docFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := blankFences(string(src))
		for _, loc := range codeSpan.FindAllStringIndex(text, -1) {
			span := strings.ReplaceAll(text[loc[0]+1:loc[1]-1], "\n", " ")
			at := file + ":" + strconv.Itoa(1+strings.Count(text[:loc[0]], "\n"))
			if m := pkgRef.FindStringSubmatch(span); m != nil {
				if p := byName[m[1]]; p != nil && !resolves(p, m[2], strings.Split(m[3], ".")[1:]) {
					t.Errorf("%s: %s names nothing in the code: fix the name or delete the sentence", at, m[0])
				}
			}
			if path := pathRef.FindString(span); path != "" {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: %s names no file or directory: fix the path or delete the sentence", at, path)
				}
			}
			for _, name := range testRef.FindAllString(span, -1) {
				if !testFuncs[name] {
					t.Errorf("%s: %s names nothing in the code: fix the name or delete the sentence", at, name)
				}
			}
		}
	}
}

// resolves reports whether p declares name at package scope and each of
// members is a field or method (exported or not) of the one before it.
func resolves(p *types.Package, name string, members []string) bool {
	obj := p.Scope().Lookup(name)
	for _, m := range members {
		if _, isFunc := obj.(*types.Func); obj == nil || isFunc {
			return false
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, m)
	}
	return obj != nil
}

// blankFences replaces every line of a ``` fenced block with an empty one,
// so spans are only inline code and line numbers stay those of the file.
func blankFences(s string) string {
	lines := strings.Split(s, "\n")
	in := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence || in {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}

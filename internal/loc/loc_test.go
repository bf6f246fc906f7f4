package loc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestModuleRootFindsGoMod(t *testing.T) {
	root := moduleRoot(t)
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
}

func TestModuleRootFailsOutsideModule(t *testing.T) {
	if _, err := ModuleRoot(t.TempDir()); err == nil {
		t.Fatal("expected error outside a module")
	}
}

// parse parses src the way Count parses a file.
func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestFuncLinesPlainFunction(t *testing.T) {
	fset, f := parse(t, `package x

// F does something.
func F() int {
	a := 1
	return a
}
`)
	n, err := funcLines(fset, f, "F")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("funcLines = %d, want 4", n)
	}
}

func TestFuncLinesMethod(t *testing.T) {
	fset, f := parse(t, `package x

type T struct{}

func (t *T) M() {
	_ = t
}

func M() {}
`)
	if n, _ := funcLines(fset, f, "T.M"); n != 3 {
		t.Fatalf("method lines = %d, want 3", n)
	}
	if n, _ := funcLines(fset, f, "M"); n != 1 {
		t.Fatalf("plain lines = %d, want 1", n)
	}
	if _, err := funcLines(fset, f, "Missing"); err == nil {
		t.Fatal("expected error for missing function")
	}
}

func TestDefaultEntriesResolveAndStaySmall(t *testing.T) {
	root := moduleRoot(t)
	rows, err := Count(root, DefaultEntries())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (Figure 11)", len(rows))
	}
	for _, r := range rows {
		if r.PushedCode <= 0 || r.CodeChange <= 0 {
			t.Fatalf("row %+v has empty counts", r)
		}
		// The paper's point: pushed code stays under ~100 lines and
		// integration changes stay in the low hundreds.
		if r.PushedCode > 150 {
			t.Fatalf("pushed code for %s = %d lines — too large to claim minimal modification",
				r.Operator, r.PushedCode)
		}
		if r.CodeChange > 400 {
			t.Fatalf("code change for %s = %d lines", r.Operator, r.CodeChange)
		}
	}
}

func TestCountSumsRefsAndNamesAMissingOne(t *testing.T) {
	root := t.TempDir()
	src := "package x\n\nfunc F() {}\n\nfunc G() {\n}\n"
	if err := os.WriteFile(filepath.Join(root, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := Count(root, []Entry{{
		System: "s", Operator: "o",
		Change: []FuncRef{{"a.go", "F"}, {"a.go", "G"}},
		Pushed: []FuncRef{{"a.go", "G"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Row{System: "s", Operator: "o", CodeChange: 3, PushedCode: 2}); rows[0] != want {
		t.Fatalf("row = %+v, want %+v", rows[0], want)
	}
	_, err = Count(root, []Entry{{Change: []FuncRef{{"a.go", "F"}}, Pushed: []FuncRef{{"a.go", "H"}}}})
	if err == nil || !strings.Contains(err.Error(), "a.go H") {
		t.Fatalf("missing function: err = %v, want one naming a.go H", err)
	}
}

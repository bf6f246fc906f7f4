package bench

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// funcRef names a function, or "Type.Method", in a file relative to this
// package's directory.
type funcRef struct{ file, name string }

// fig11Sources maps each of fig11Rows onto this repository, row for row: the
// functions whose lines make its code change and its pushed code.
func fig11Sources() []struct{ change, pushed []funcRef } {
	const (
		ops   = "../coldb/ops.go"
		join  = "../coldb/join.go"
		tpchQ = "../tpch/queries.go"
		gEng  = "../graph/engine.go"
		mrEng = "../mapreduce/engine.go"
	)
	return []struct{ change, pushed []funcRef }{
		{[]funcRef{{tpchQ, "QFilter"}}, []funcRef{{ops, "Project"}}},
		{[]funcRef{{tpchQ, "QFilter"}}, []funcRef{{ops, "Aggregate"}}},
		{[]funcRef{{tpchQ, "QFilter"}}, []funcRef{{ops, "SelectI64"}}},
		{[]funcRef{{tpchQ, "Q3"}}, []funcRef{{join, "BuildHashIndex"}, {join, "HashJoinProbe"}}},
		{[]funcRef{{gEng, "Engine.Run"}}, []funcRef{{gEng, "Engine.finalize"}}},
		{[]funcRef{{gEng, "Engine.Run"}}, []funcRef{{gEng, "Engine.scatter"}}},
		{[]funcRef{{gEng, "Engine.Run"}}, []funcRef{{gEng, "Engine.gather"}, {gEng, "Engine.apply"}}},
		{[]funcRef{{mrEng, "Engine.Run"}}, []funcRef{{mrEng, "Engine.mapShuffle"}}},
	}
}

// TestFig11CountsMatchSources recounts Figure 11 from the sources it
// describes, parsing each file once, and holds fig11Rows to the counts. A
// change to a counted function fails here with the table to paste; the
// rendered figure, and so experiments_run.txt, changes with it.
func TestFig11CountsMatchSources(t *testing.T) {
	sources := fig11Sources()
	if len(sources) != 8 || len(fig11Rows) != len(sources) {
		t.Fatalf("%d rows, %d source mappings: Figure 11 has 8", len(fig11Rows), len(sources))
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	sum := func(refs []funcRef) int {
		total := 0
		for _, r := range refs {
			f, ok := files[r.file]
			if !ok {
				var err error
				if f, err = parser.ParseFile(fset, r.file, nil, parser.SkipObjectResolution); err != nil {
					t.Fatal(err)
				}
				files[r.file] = f
			}
			n, err := funcLines(fset, f, r.name)
			if err != nil {
				t.Fatalf("%s: %v", r.file, err)
			}
			total += n
		}
		return total
	}
	var literal strings.Builder
	stale := false
	for i, src := range sources {
		r := fig11Rows[i]
		change, pushed := sum(src.change), sum(src.pushed)
		fmt.Fprintf(&literal, "\t{%q, %q, %d, %d},\n", r.system, r.operator, change, pushed)
		if change != r.change || pushed != r.pushed {
			t.Errorf("%s: counted change %d, pushed %d; fig11Rows holds %d, %d",
				r.operator, change, pushed, r.change, r.pushed)
			stale = true
		}
		// The paper's point: pushed code stays under ~100 lines and
		// integration changes stay in the low hundreds.
		if change <= 0 || pushed <= 0 || pushed > 150 || change > 400 {
			t.Errorf("%s: change %d, pushed %d lines; want 1–400 and 1–150 to claim minimal modification",
				r.operator, change, pushed)
		}
	}
	if stale {
		t.Errorf("fig11Rows is stale; its rows as counted now:\n%s", literal.String())
	}
}

// Figure 11 describes the sources, not the run: its bytes are those of
// experiments_run.txt from any working directory.
func TestFig11IndependentOfWorkingDirectory(t *testing.T) {
	committed, err := os.ReadFile("../../experiments_run.txt")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(committed, []byte("== Fig 11:"))
	if i < 0 {
		t.Fatal("experiments_run.txt has no Fig 11 section")
	}
	want, _, _ := bytes.Cut(committed[i:], []byte("\n\n"))
	want = append(want, "\n\n"...)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	tab, err := Run("11", smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	tab.Fprint(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Fig 11 outside the module:\n%s\nexperiments_run.txt:\n%s", got.Bytes(), want)
	}
}

// funcLines returns the source-line count of the named function in f, which
// fset parsed. Methods are addressed as "Type.Method" (pointer receivers
// included).
func funcLines(fset *token.FileSet, f *ast.File, name string) (int, error) {
	wantRecv, wantName := "", name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		wantRecv, wantName = name[:i], name[i+1:]
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != wantName || recvTypeName(fd) != wantRecv {
			continue
		}
		return fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1, nil
	}
	return 0, fmt.Errorf("function %s not found", name)
}

// recvTypeName returns the receiver's base type name ("" for plain
// functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// parse parses src the way TestFig11CountsMatchSources parses a file.
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

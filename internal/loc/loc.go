// Package loc reproduces Figure 11 — the per-operator "code change" and
// "pushed code" line counts — by statically analysing this repository's own
// sources with go/parser. The paper's point is that applying TELEPORT takes
// negligible modification (tens to a few hundred lines per operator against
// 400K-LoC systems); the same holds here, and this package measures it from
// the code instead of hard-coding numbers.
package loc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// FuncRef names a function (or "Type.Method") in a file relative to the
// module root.
type FuncRef struct {
	File string
	Name string
}

// Entry describes one Figure 11 row: the integration functions on the
// compute side ("code change") and the functions executed in the memory
// pool ("pushed code").
type Entry struct {
	System   string
	Operator string
	Change   []FuncRef
	Pushed   []FuncRef
}

// Row is the measured result.
type Row struct {
	System     string
	Operator   string
	CodeChange int
	PushedCode int
}

// ModuleRoot walks up from dir until it finds go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loc: no go.mod above %s", dir)
		}
		dir = parent
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
		if !ok || fd.Name.Name != wantName {
			continue
		}
		if wantRecv != recvTypeName(fd) {
			continue
		}
		start := fset.Position(fd.Pos()).Line
		end := fset.Position(fd.End()).Line
		return end - start + 1, nil
	}
	return 0, fmt.Errorf("loc: function %s not found", name)
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

// Count measures every entry relative to the module root. Each distinct
// file is parsed once, without object resolution (only declarations' line
// spans are read).
func Count(root string, entries []Entry) ([]Row, error) {
	rows := make([]Row, 0, len(entries))
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	lines := func(r FuncRef) (int, error) {
		f, ok := files[r.File]
		if !ok {
			var err error
			if f, err = parser.ParseFile(fset, filepath.Join(root, r.File), nil, parser.SkipObjectResolution); err != nil {
				return 0, err
			}
			files[r.File] = f
		}
		return funcLines(fset, f, r.Name)
	}
	sum := func(refs []FuncRef) (int, error) {
		total := 0
		for _, r := range refs {
			n, err := lines(r)
			if err != nil {
				return 0, fmt.Errorf("%s %s: %w", r.File, r.Name, err)
			}
			total += n
		}
		return total, nil
	}
	for _, e := range entries {
		change, err := sum(e.Change)
		if err != nil {
			return nil, err
		}
		pushed, err := sum(e.Pushed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			System: e.System, Operator: e.Operator,
			CodeChange: change, PushedCode: pushed,
		})
	}
	return rows, nil
}

// DefaultEntries maps Figure 11's rows onto this repository: the pushed
// code is the operator implementation that executes in the memory pool; the
// code change is the plan/engine integration that wraps it.
func DefaultEntries() []Entry {
	coldbOps := "internal/coldb/ops.go"
	coldbJoin := "internal/coldb/join.go"
	tpchQ := "internal/tpch/queries.go"
	gEng := "internal/graph/engine.go"
	mrEng := "internal/mapreduce/engine.go"
	return []Entry{
		{
			System: "coldb (MonetDB stand-in)", Operator: "Projection",
			Change: []FuncRef{{tpchQ, "QFilter"}},
			Pushed: []FuncRef{{coldbOps, "Project"}},
		},
		{
			System: "coldb (MonetDB stand-in)", Operator: "Aggregation",
			Change: []FuncRef{{tpchQ, "QFilter"}},
			Pushed: []FuncRef{{coldbOps, "Aggregate"}},
		},
		{
			System: "coldb (MonetDB stand-in)", Operator: "Selection",
			Change: []FuncRef{{tpchQ, "QFilter"}},
			Pushed: []FuncRef{{coldbOps, "SelectI64"}},
		},
		{
			System: "coldb (MonetDB stand-in)", Operator: "HashJoin",
			Change: []FuncRef{{tpchQ, "Q3"}},
			Pushed: []FuncRef{{coldbJoin, "BuildHashIndex"}, {coldbJoin, "HashJoinProbe"}},
		},
		{
			System: "graph (PowerGraph stand-in)", Operator: "Finalize",
			Change: []FuncRef{{gEng, "Engine.Run"}},
			Pushed: []FuncRef{{gEng, "Engine.finalize"}},
		},
		{
			System: "graph (PowerGraph stand-in)", Operator: "Scatter",
			Change: []FuncRef{{gEng, "Engine.Run"}},
			Pushed: []FuncRef{{gEng, "Engine.scatter"}},
		},
		{
			System: "graph (PowerGraph stand-in)", Operator: "Gather",
			Change: []FuncRef{{gEng, "Engine.Run"}},
			Pushed: []FuncRef{{gEng, "Engine.gather"}, {gEng, "Engine.apply"}},
		},
		{
			System: "mapreduce (Phoenix stand-in)", Operator: "MapShuffle",
			Change: []FuncRef{{mrEng, "Engine.Run"}},
			Pushed: []FuncRef{{mrEng, "Engine.mapShuffle"}},
		},
	}
}

package load

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkSrc parses and type-checks one in-memory file.
func checkSrc(t *testing.T, src string) ([]*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return []*ast.File{f}, info
}

const callSrc = `package p

type S struct{}

func (s *S) M() {}

type I interface{ N() }

func helper() {}

func caller(s *S, i I, fn func()) {
	helper()
	s.M()
	i.N()
	fn()
	go func() {
		helper()
	}()
}

var sink = initVal()

func initVal() int {
	helper()
	return 0
}
`

// callees resolves every call expression under root, in source order.
func callees(info *types.Info, root ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			out = append(out, StaticCallee(info, call))
		}
		return true
	})
	return out
}

// declNamed returns the declaration Decls holds for name.
func declNamed(t *testing.T, decls map[*types.Func]*ast.FuncDecl, name string) *ast.FuncDecl {
	t.Helper()
	for fn, d := range decls {
		if fn.Name() == name {
			return d
		}
	}
	t.Fatalf("declared function %s not in Decls", name)
	return nil
}

func TestCallGraphResolution(t *testing.T) {
	files, info := checkSrc(t, callSrc)
	decls := Decls(files, info)
	for _, name := range []string{"M", "helper", "caller", "initVal"} {
		declNamed(t, decls, name)
	}

	calls := callees(info, declNamed(t, decls, "caller").Body)
	// helper(), s.M(), i.N(), fn(), go func(){}(), and helper() inside the
	// goroutine literal.
	if len(calls) != 6 {
		t.Fatalf("caller makes %d calls, want 6", len(calls))
	}
	named := make(map[string]int)
	unresolved := 0
	for _, fn := range calls {
		if fn == nil {
			unresolved++
			continue
		}
		named[fn.Name()]++
	}
	if named["helper"] != 2 {
		t.Errorf("helper resolved %d times, want 2 (direct + inside goroutine)", named["helper"])
	}
	if named["M"] != 1 {
		t.Errorf("method M resolved %d times, want 1", named["M"])
	}
	if named["N"] != 1 {
		t.Errorf("interface method N resolved %d times, want 1", named["N"])
	}
	// fn() and the go func(){}() invocation are function-value calls.
	if unresolved != 2 {
		t.Errorf("unresolved callees = %d, want 2 (fn() and the go literal call)", unresolved)
	}
}

// TestCallGraphPackageInitialiser follows the one hop maporder takes, from
// a call site through StaticCallee to the callee's declaration, starting
// from a package-level initialiser rather than a function body.
func TestCallGraphPackageInitialiser(t *testing.T) {
	files, info := checkSrc(t, callSrc)
	decls := Decls(files, info)
	for _, d := range files[0].Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			calls := callees(info, gd)
			if len(calls) != 1 || calls[0] == nil {
				t.Fatalf("the sink initialiser resolves to %v, want one callee", calls)
			}
			if decls[calls[0]] != declNamed(t, decls, "initVal") {
				t.Fatalf("the sink initialiser's callee %v does not lead to initVal's declaration", calls[0])
			}
			return
		}
	}
	t.Fatal("no package-level var in the source")
}

func TestStaticCalleeInterfaceMethodIsNamed(t *testing.T) {
	files, info := checkSrc(t, callSrc)
	decls := Decls(files, info)
	for _, fn := range callees(info, files[0]) {
		if fn != nil && fn.Name() == "N" {
			// An interface method has no declaration in this package.
			if _, ok := decls[fn]; ok {
				t.Fatal("interface method N must not appear in Decls")
			}
			return
		}
	}
	t.Fatal("no call resolved to interface method N")
}

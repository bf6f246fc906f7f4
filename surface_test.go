package teleport_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"teleport/internal/analysis/load"
)

// internal/ is an application, not a library: an exported name under it
// exists because a non-test file of this module uses it, or because one line
// here says why not. Keys are "pkg.Name" / "pkg.Type.Member".
//
// Not listed because benchmark/probes.go calls them, but alive for no other
// reason: mem.NewPageTable, PageTable.Ensure/Lookup and PTE.Dirty exist only so
// the mem.pt_lookup_ns probe has something to time, and ddc.Env.ReadU64s, a
// loop of ReadU64, only for the ddc.read_batched_ns probe (ROADMAP item 9d).
// netmodel.PushdownRequest.Marshal and MarshalResident, with the AppendRuns
// under them, are the wire encoder the netmodel.*_marshal_ns probes time; a
// call sends only WireSize (ROADMAP item 9c).
var surfaceKeep = map[string]string{
	"bench.RunWorkload": "oracle: the single-run entry bench's determinism, chaos and golden tests compare runs through",

	"ddc.Env.Accesses":   "observation point: TestEnvAccessMatchesReference lock-steps the access counters against the reference path",
	"ddc.Env.WriteBytes": "facade API (teleport.Env, README quickstart): the write half of ReadBytes",

	"fault.Plan.Pin": "test oracle: puts an outage edge at an exact instant (core boundary/breaker tests, FuzzSchedulePins)",

	"netmodel.EncodeRuns": "oracle: FuzzCacheRuns/TestCacheRunsMatchReference check PageCache.AppendRuns against it",

	"trace.Ring.CountByKind": "observation point: core, ddc and trace tests count events per kind through it",
}

// knobStructs are the option structs whose every exported field must be set
// by at least one non-test file of the module: a setting only a test makes is
// no setting a run can reach.
var knobStructs = []string{
	"core.Runtime", "core.Options", "core.Policy",
	"profile.Exec", "ddc.Config", "bench.Options",
}

const internalPrefix = "teleport/internal/"

// module is the type-checked module and its parsed _test.go files (testdata
// excluded), loaded once per test binary for every test that reads them.
var module struct {
	once  sync.Once
	pkgs  []*load.Package
	tests []*ast.File
	err   error
}

func loadModule(t *testing.T) ([]*load.Package, []*ast.File) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module (~2 s)")
	}
	module.once.Do(func() {
		module.pkgs, module.err = load.NewSession(".").Module("./...")
		if module.err != nil {
			return
		}
		module.err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") || strings.Contains(path, "testdata") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			module.tests = append(module.tests, f)
			return nil
		})
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs, module.tests
}

func TestInternalSurfaceHasProductionCallers(t *testing.T) {
	pkgs, _ := loadModule(t)

	// Every object a non-test file names, and every field one sets.
	used := map[types.Object]bool{}
	assigned := map[types.Object]bool{}
	var ifaces []*types.Interface
	addIface := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	addIface(types.Universe.Lookup("error"))
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
		for _, name := range p.Types.Scope().Names() {
			addIface(p.Types.Scope().Lookup(name))
		}
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "fmt" {
				addIface(imp.Scope().Lookup("Stringer"))
			}
		}
		for _, f := range p.Files {
			set := func(id *ast.Ident) {
				if obj := p.Info.Uses[id]; obj != nil {
					assigned[origin(obj)] = true
				}
			}
			markAssigned(f, set)
			// &x.Field binds a flag to the field: the flag package sets it.
			ast.Inspect(f, func(n ast.Node) bool {
				if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
					if sel, ok := u.X.(*ast.SelectorExpr); ok {
						set(sel.Sel)
					}
				}
				return true
			})
		}
	}
	// satisfies reports whether m is a method some interface of the module
	// (or error / fmt.Stringer) demands of its receiver type.
	satisfies := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() && types.Implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	var unreferenced []string
	keepSeen := map[string]bool{}
	check := func(key string, obj types.Object) {
		if used[obj] {
			return
		}
		if _, ok := surfaceKeep[key]; ok {
			keepSeen[key] = true
			return
		}
		unreferenced = append(unreferenced, key)
	}
	knobs := map[string]*types.Struct{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, internalPrefix) || strings.HasPrefix(p.Path, internalPrefix+"analysis") {
			continue
		}
		pkg := strings.TrimPrefix(p.Path, internalPrefix)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if _, isConst := obj.(*types.Const); !isConst && obj.Exported() {
				check(pkg+"."+name, obj)
			}
			if !isType || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !satisfies(m) {
					check(pkg+"."+name+"."+m.Name(), m)
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			knobs[pkg+"."+name] = st
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					check(pkg+"."+name+"."+f.Name(), f)
				}
			}
		}
	}
	sort.Strings(unreferenced)
	for _, key := range unreferenced {
		t.Errorf("%s is exported under internal/ but no non-test file references it: delete it, unexport it, or give it a line in surfaceKeep", key)
	}
	for key, why := range surfaceKeep {
		if !keepSeen[key] {
			t.Errorf("surfaceKeep[%q] is stale: the name is gone or has a production caller now", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("surfaceKeep[%q] has no reason", key)
		}
	}
	if len(surfaceKeep) > 6 {
		t.Errorf("surfaceKeep has %d entries; the budget is 6", len(surfaceKeep))
	}

	// The knob no run can set.
	for _, name := range knobStructs {
		st := knobs[name]
		if st == nil {
			t.Errorf("knob struct %s not found", name)
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() && !assigned[f] {
				t.Errorf("%s.%s is set by no non-test file: a knob nobody sets is a constant", name, f.Name())
			}
		}
	}
}

// fieldKeep names the struct fields ("pkg.Type.field") and whole structs
// ("pkg.Type") that no non-test file reads by name, each with why it stays.
// An anonymous struct's fields go by the function or variable it appears in.
var fieldKeep = map[string]string{
	"bench.cellKey":    "map key of the scope's cell table: compared whole, never read field by field",
	"bench.datasetKey": "map key of the scope's dataset table: compared whole, never read field by field",

	"core.RuntimeStats": "the runtime's statistics, returned to callers and marshalled in the run report's fault block",
	"tpch.Q1Row":        "the query's answer",

	"sim.domain":      "internal/sim is frozen (ROADMAP \"Decided\")",
	"main.group.name": "TestEveryFlagDeclaredOnce names flag groups by it",
}

// TestEveryFieldIsRead fails on a struct field declared under internal/ or
// cmd/ that no non-test file of the module reads. Being the target of an
// assignment or ++/-- or a composite-literal key is not a read. A field with
// a struct tag is read by reflection (encoding/json, metrics.Ledger), and an
// embedded one through promotion, so neither is checked.
func TestEveryFieldIsRead(t *testing.T) {
	pkgs, _ := loadModule(t)
	read := map[types.Object]bool{}
	for _, p := range pkgs {
		written := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			markAssigned(f, func(id *ast.Ident) { written[id] = true })
		}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[origin(v)] = true
			}
		}
	}

	var unread []string
	keepSeen := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, internalPrefix) && !strings.HasPrefix(p.Path, "teleport/cmd/") {
			continue
		}
		// check visits the structs under node, naming their fields after
		// owner: the type, variable or function declared at top level.
		check := func(owner string, node ast.Node) {
			typ := p.Types.Name() + "." + owner
			ast.Inspect(node, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil {
						continue
					}
					for _, name := range fld.Names {
						if name.Name == "_" || read[p.Info.Defs[name]] {
							continue
						}
						key := typ + "." + name.Name
						if _, ok := fieldKeep[key]; ok {
							keepSeen[key] = true
						} else if _, ok := fieldKeep[typ]; ok {
							keepSeen[typ] = true
						} else {
							unread = append(unread, key)
						}
					}
				}
				return true
			})
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					check(d.Name.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							check(sp.Name.Name, sp)
						case *ast.ValueSpec:
							check(sp.Names[0].Name, sp)
						}
					}
				}
			}
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		t.Errorf("%s is written but no non-test file reads it: delete it, or give it a line in fieldKeep", key)
	}
	for key, why := range fieldKeep {
		if !keepSeen[key] {
			t.Errorf("fieldKeep[%q] is stale: the field is gone or a non-test file reads it now", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("fieldKeep[%q] has no reason", key)
		}
	}
}

// TestOneSnapshotNamePerVariable fails when two names of a metrics snapshot
// are written from one variable: statements s.Counters[k] = v or
// s.Gauges[k] = v in the layers' ReadStats whose values read the same field
// or variable, through conversions. One happening has one name; a second
// name for it is a copy that every reader has to be told is a copy.
func TestOneSnapshotNamePerVariable(t *testing.T) {
	pkgs, _ := loadModule(t)
	first := map[types.Object]string{} // variable → the first name written from it
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name != "ReadStats" || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
						return true
					}
					ix, ok := as.Lhs[0].(*ast.IndexExpr)
					if !ok {
						return true
					}
					sel, ok := ix.X.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Counters" && sel.Sel.Name != "Gauges") {
						return true
					}
					obj := readVar(p.Info, as.Rhs[0])
					if obj == nil {
						return true
					}
					name := p.Types.Name() + ": " + sel.Sel.Name + "[" + types.ExprString(ix.Index) + "]"
					if prev, dup := first[obj]; dup {
						t.Errorf("%s and %s are both written from %s: one variable, one name", prev, name, obj.Name())
					} else {
						first[obj] = name
					}
					return true
				})
			}
		}
	}
	if len(first) == 0 {
		t.Fatal("found no snapshot name written from a variable in any ReadStats")
	}
}

// readVar returns the field or variable e reads, looking through
// parentheses and conversions, or nil when e is anything else.
func readVar(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; !ok || !tv.IsType() || len(x.Args) != 1 {
				return nil
			}
			e = x.Args[0]
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic's member back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markAssigned calls mark for every field identifier f assigns: a key of a
// composite literal, or the selected name on the left of =, op= or ++/--.
func markAssigned(f *ast.File, mark func(*ast.Ident)) {
	lhs := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			mark(sel.Sel)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mark(id)
					}
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		}
		return true
	})
}

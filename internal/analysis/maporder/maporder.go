// Package maporder flags range loops over maps whose bodies emit
// observable output in iteration order.
//
// Go randomizes map iteration, so a map-range that prints, traces,
// records metrics, sends on a channel, or appends to a slice that
// outlives the loop produces a different observable order every run —
// exactly the nondeterminism the simulator's byte-identical-output
// guarantees cannot tolerate. Order-insensitive bodies (summing,
// inserting into another map) are fine, and the sanctioned fix — collect
// keys, sort, range the slice — never ranges a map at all. A loop that
// appends to an outer slice which is demonstrably sorted later in the
// same function is also accepted, since the order nondeterminism dies in
// the sort.
package maporder

import (
	"go/ast"
	"go/types"
	"path"

	"teleport/internal/analysis"
	"teleport/internal/analysis/load"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags map-range loops that emit observable output (fmt/trace/metrics calls, channel sends, appends to outer slices) in nondeterministic order",
	Run:  run,
}

// observablePkgs are package-name bases whose void method calls make
// iteration order observable: trace events and metric records surface to
// the user in emission order. (Getters on these packages' types return a
// value and are order-insensitive, so only result-less methods count.)
var observablePkgs = map[string]bool{"trace": true, "metrics": true}

// fmtEmitters are the fmt functions that write to a stream; Sprintf and
// friends merely build values and are handled by the append rule if the
// built values escape in order.
var fmtEmitters = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

func run(pass *analysis.Pass) error {
	// The package's declarations back the one-hop interprocedural check:
	// iteration variables handed to a same-package helper that emits them.
	decls := load.Decls(pass.Files, pass.Info)
	// Walk per enclosing function so the sorted-afterwards whitelist can
	// inspect statements that follow the loop.
	pass.Inspect(func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		checkFunc(pass, decls, body)
		return true
	})
	return nil
}

func checkFunc(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, fn *ast.BlockStmt) {
	ast.Inspect(fn, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // visited as its own function by run
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, decls, fn, rng)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, fn *ast.BlockStmt, rng *ast.RangeStmt) {
	var appended []types.Object // outer slices grown inside the loop
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Report(rng.Pos(),
				"map iteration order is random: this loop sends on a channel per key; iterate sorted keys instead")
			return true
		case *ast.GoStmt:
			// Worker fan-out from a map range: the goroutines launch — and
			// therefore acquire pool tokens, emit results, and contend —
			// in a different order every run. Deterministic harnesses
			// (internal/bench's parmap) fan out over index-ordered slices.
			pass.Report(rng.Pos(),
				"map iteration order is random: this loop launches a goroutine per key, so spawn and result order change every run; build a sorted job slice first (or //lint:allow maporder <reason>)")
			return true
		case *ast.CallExpr:
			if name, bad := observableCall(pass, n); bad {
				pass.Reportf(rng.Pos(),
					"map iteration order is random: this loop calls %s per key, making the emitted order nondeterministic; iterate sorted keys instead (or //lint:allow maporder <reason>)",
					name)
				return true
			}
			if callee := emitsArgObservably(pass, decls, rng, n); callee != "" {
				pass.Reportf(rng.Pos(),
					"map iteration order is random: this loop passes the iteration variable to %s, which emits it observably; iterate sorted keys instead (or //lint:allow maporder <reason>)",
					callee)
				return true
			}
			if obj := outerAppendTarget(pass, rng, n); obj != nil {
				appended = append(appended, obj)
			}
		}
		return true
	})
	for _, obj := range appended {
		if !sortedAfter(pass, fn, rng, obj) {
			pass.Reportf(rng.Pos(),
				"map iteration order is random: this loop appends to %q, which outlives the loop unsorted; sort it afterwards or iterate sorted keys",
				obj.Name())
		}
	}
}

// observableCall reports whether call emits ordered observable output: a
// call into fmt/trace/metrics, or a method on a value whose type is
// declared in a trace/metrics package.
func observableCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkgPath, ok := pass.PkgPathOf(sel); ok {
		base := path.Base(pkgPath)
		if base == "fmt" && fmtEmitters[sel.Sel.Name] {
			return "fmt." + sel.Sel.Name, true
		}
		if observablePkgs[base] {
			return base + "." + sel.Sel.Name, true
		}
		return "", false
	}
	// Method call: attribute it to the package declaring the method, and
	// count only result-less (recording) methods — getters are
	// order-insensitive.
	if s, ok := pass.Info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
			base := path.Base(fn.Pkg().Path())
			sig, isSig := fn.Type().(*types.Signature)
			if observablePkgs[base] && isSig && sig.Results().Len() == 0 {
				return "(" + base + ") " + sel.Sel.Name, true
			}
		}
	}
	return "", false
}

// outerAppendTarget returns the object a loop-body append grows, if that
// object is declared outside the range statement (so the accumulated
// order escapes the loop).
func outerAppendTarget(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[target]
	if obj == nil || obj.Pos() == 0 {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil // loop-local accumulator; its order dies with the loop
	}
	return obj
}

// emitsArgObservably is the one-hop interprocedural check: an iteration
// variable of the map range passed as an argument to a same-package
// function whose body emits the corresponding parameter observably (a
// fmt/trace/metrics call or a channel send). It returns the callee's
// name, or "" when the call launders no iteration order. One hop only:
// deeper flows need the callee's own map-range to be the loop, which
// this analyzer already checks.
func emitsArgObservably(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, rng *ast.RangeStmt, call *ast.CallExpr) string {
	iters := rangeVarObjs(pass, rng)
	if len(iters) == 0 {
		return ""
	}
	callee := load.StaticCallee(pass.Info, call)
	if callee == nil {
		return ""
	}
	decl := decls[callee]
	if decl == nil || decl.Body == nil {
		return ""
	}
	params := paramObjs(pass, decl)
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !iters[obj] {
			continue
		}
		if i >= len(params) || params[i] == nil {
			continue
		}
		if paramEmitted(pass, decl.Body, params[i]) {
			return callee.Name()
		}
	}
	return ""
}

// rangeVarObjs collects the objects bound to the range's key and value.
func rangeVarObjs(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.ObjectOf(id)
		if obj != nil {
			objs[obj] = true
		}
	}
	return objs
}

// paramObjs flattens a declaration's parameter objects in positional
// order (multi-name fields repeat their type, matching argument order).
func paramObjs(pass *analysis.Pass, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed: nothing can flow through it
			continue
		}
		for _, name := range field.Names {
			out = append(out, pass.Info.Defs[name])
		}
	}
	return out
}

// paramEmitted reports whether the parameter object reaches an
// observable sink inside body: an emitting call's argument or a channel
// send's value.
func paramEmitted(pass *analysis.Pass, body *ast.BlockStmt, param types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, bad := observableCall(pass, n); !bad {
				return true
			}
			for _, arg := range n.Args {
				if usesObj(pass, arg, param) {
					found = true
				}
			}
		case *ast.SendStmt:
			if usesObj(pass, n.Value, param) {
				found = true
			}
		}
		return true
	})
	return found
}

// usesObj reports whether expr references obj.
func usesObj(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	used := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// sortedAfter reports whether obj is passed to a sort call after the
// range statement within the same function body.
func sortedAfter(pass *analysis.Pass, fn *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := pass.PkgPathOf(sel)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			id, ok := arg.(*ast.Ident)
			if ok && pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

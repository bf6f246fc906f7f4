// Package timecharge checks that exported entry points of the leaf device
// models — anything taking a *sim.Thread in internal/netmodel and
// internal/storage — advance the calling thread's virtual clock on every
// non-error path. The routers above them (internal/ddc, internal/core) are
// not checked: their healthy paths — a DRAM hit, a healthy-controller probe,
// an unreplicated fan-out — are free by design, and every cost they do
// charge bottoms out in a device call that is.
//
// A modeled operation that returns without charging time makes the
// simulated hardware infinitely fast on that path, silently skewing
// every figure downstream; no test catches it because the run is still
// deterministic, just wrong. The check is an all-paths must-analysis
// over the control-flow graph: a path charges if it executes a charging
// primitive (Advance, AdvanceNs, AdvanceTo, Block on the thread), calls
// a same-package function whose own summary proves it charges on every
// path (computed to a fixpoint over the package call graph), or calls
// into a sibling model package passing the thread (assume-guarantee:
// that package's own lint run enforces the callee's obligation). Paths
// that return a non-nil error and paths that panic are exempt — failed
// operations may bail before touching hardware. Constructor-style
// functions (pointer results) and observability packages are out of
// scope.
package timecharge

import (
	"go/ast"
	"go/types"
	"path"

	"teleport/internal/analysis"
	"teleport/internal/analysis/cfg"
	"teleport/internal/analysis/load"
)

// Analyzer is the timecharge check.
var Analyzer = &analysis.Analyzer{
	Name: "timecharge",
	Doc:  "exported hardware-model entry points taking a *sim.Thread must advance the thread's virtual clock on every non-error path",
	DefaultFilter: func(pkgPath string) bool {
		return pkgPath == "teleport/internal/netmodel" || pkgPath == "teleport/internal/storage"
	},
	Run: run,
}

// chargers are the Thread methods that advance virtual time.
var chargers = map[string]bool{
	"Advance": true, "AdvanceNs": true, "AdvanceTo": true, "Block": true,
}

// modelPkgs are the package bases whose thread-taking exported functions
// are assumed to charge (each package's own lint run guarantees it).
var modelPkgs = map[string]bool{
	"netmodel": true, "storage": true, "sim": true,
}

func run(pass *analysis.Pass) error {
	g := load.NewCallGraph(pass.Files, pass.Info)

	// Same-package summaries: does fn charge on every path, regardless of
	// outcome? Monotone fixpoint — summaries only flip false→true, and a
	// true summary only adds charge events to its callers.
	summaries := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for fn, decl := range g.Decls {
			if summaries[fn] {
				continue
			}
			if chargesAllExits(pass, decl, summaries, false) {
				summaries[fn] = true
				changed = true
			}
		}
	}

	for fn, decl := range g.Decls {
		if !isTarget(fn, decl) {
			continue
		}
		chargesAllExits(pass, decl, summaries, true)
	}
	return nil
}

// isTarget reports whether decl is an exported model entry point: an
// exported function or method with a *sim.Thread parameter, excluding
// constructor-style functions (pointer results build models, they do not
// run them).
func isTarget(fn *types.Func, decl *ast.FuncDecl) bool {
	if !fn.Exported() || decl.Body == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if threadParam(sig) == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if _, isPtr := sig.Results().At(i).Type().(*types.Pointer); isPtr {
			return false
		}
	}
	return true
}

// threadParam returns the first parameter of type *sim.Thread, or nil.
func threadParam(sig *types.Signature) *types.Var {
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isThread(p.Type()) {
			return p
		}
	}
	return nil
}

// isThread reports whether t is sim.Thread or *sim.Thread (by package
// base and name: fixtures use a stand-in sim package).
func isThread(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Thread" && obj.Pkg() != nil && path.Base(obj.Pkg().Path()) == "sim"
}

// chargesAllExits runs the must-charge dataflow over decl's body. With
// report unset it computes the summary answer: charged at every normal
// exit. With report set it reports each unexempt uncharged exit: error
// returns and panic paths are excused.
func chargesAllExits(pass *analysis.Pass, decl *ast.FuncDecl, summaries map[*types.Func]bool, report bool) bool {
	if decl.Body == nil {
		return false
	}
	g := cfg.New(decl.Body)
	gen := make([]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if nodeCharges(pass, n, summaries) {
				gen[b.Index] = true
			}
		}
	}

	// Must-analysis, greatest fixpoint: start everything charged, lower
	// until stable. in = AND over preds; entry starts uncharged.
	out := make([]bool, len(g.Blocks))
	for i := range out {
		out[i] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			in := b != g.Entry
			for _, p := range b.Preds {
				in = in && out[p.Index]
			}
			o := in || gen[b.Index]
			if o != out[b.Index] {
				out[b.Index] = o
				changed = true
			}
		}
	}

	sig := pass.Info.Defs[decl.Name].Type().(*types.Signature)
	all := true
	for _, p := range g.Exit.Preds {
		if out[p.Index] {
			continue
		}
		all = false
		if !report {
			continue
		}
		ret := p.Return()
		if errorReturn(pass, sig, ret) {
			continue
		}
		pos := decl.Body.Rbrace
		what := "falls off the end"
		if ret != nil {
			pos = ret.Pos()
			what = "returns"
		}
		pass.Reportf(pos,
			"%s %s without advancing the thread's virtual clock on this path: charge the modeled cost (or //lint:allow timecharge <reason>)",
			decl.Name.Name, what)
	}
	return all
}

// nodeCharges reports whether one block node charges virtual time: a
// charging primitive on a thread, a same-package callee whose summary
// proves the charge, or a thread-passing call into a sibling model
// package. Goroutine launches charge the spawned thread, not the caller.
func nodeCharges(pass *analysis.Pass, n ast.Node, summaries map[*types.Func]bool) bool {
	if _, ok := n.(*ast.GoStmt); ok {
		return false
	}
	charges := false
	ast.Inspect(n, func(m ast.Node) bool {
		if charges {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // separate function: no synchronous guarantee
		case *ast.CallExpr:
			if callCharges(pass, m, summaries) {
				charges = true
				return false
			}
		}
		return true
	})
	return charges
}

func callCharges(pass *analysis.Pass, call *ast.CallExpr, summaries map[*types.Func]bool) bool {
	// t.Advance(...) and friends.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && chargers[sel.Sel.Name] {
		if s, ok := pass.Info.Selections[sel]; ok && isThread(s.Recv()) {
			return true
		}
	}
	callee := load.StaticCallee(pass.Info, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	if callee.Pkg() == pass.Pkg {
		return summaries[callee]
	}
	// Cross-package assume-guarantee: a sibling model entry point that
	// takes the thread is obligated (by its own lint run) to charge it.
	if !modelPkgs[path.Base(callee.Pkg().Path())] {
		return false
	}
	for _, arg := range call.Args {
		if tv, ok := pass.Info.Types[arg]; ok && isThread(tv.Type) {
			return true
		}
	}
	return false
}

// errorReturn reports whether ret exits a function whose last result is
// an error with a visibly non-nil value — a failure path, exempt from
// charging. Naked returns and `return ..., nil` are success paths.
func errorReturn(pass *analysis.Pass, sig *types.Signature, ret *ast.ReturnStmt) bool {
	n := sig.Results().Len()
	if n == 0 || ret == nil || len(ret.Results) == 0 {
		return false
	}
	last := sig.Results().At(n - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return false
	}
	if len(ret.Results) != n {
		return false // single call expression spread: cannot tell
	}
	if id, ok := ret.Results[n-1].(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// Package confine checks that mutable simulator state stays confined to
// its owning scheduler goroutine: goroutine closures must not capture
// it, goroutine calls must not receive it, and channels must not
// transmit it.
//
// The deterministic scheduler serializes all simulator mutation onto
// cooperative threads; a host goroutine that captures a *sim.Thread or a
// *ddc.Machine can interleave mutations with the scheduler arbitrarily,
// producing run-to-run divergence that no seed pins down. These are the
// ground rules the conservative parallel DES core (sim.Domain) relies on:
// workers may exchange values (page ids, byte counts, result slices) but
// never the simulator objects themselves. The check inspects every `go`
// statement's closure free variables, call arguments, and receiver, and
// every channel send, against a registry of confined types. The sim
// package itself is exempt — its scheduler goroutines ARE the
// confinement mechanism.
package confine

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"teleport/internal/analysis"
)

// Analyzer is the confine check.
var Analyzer = &analysis.Analyzer{
	Name: "confine",
	Doc:  "goroutine closures and channel sends must not capture or transmit mutable simulator state (*sim.Thread, *ddc.Machine, pager state, ...)",
	DefaultFilter: func(pkgPath string) bool {
		if !strings.HasPrefix(pkgPath, "teleport/internal/") {
			return false
		}
		// The scheduler owns the confinement mechanism, and the analysis
		// tree manipulates no simulator state.
		return !strings.HasPrefix(pkgPath, "teleport/internal/sim") &&
			!strings.HasPrefix(pkgPath, "teleport/internal/analysis")
	},
	Run: run,
}

// confined registers the mutable simulator types by package base and
// name (fixtures use stand-in packages with the same bases).
var confined = map[string]map[string]bool{
	"sim":   {"Thread": true, "Scheduler": true, "Domain": true},
	"ddc":   {"Machine": true, "Process": true, "Env": true, "PageCache": true},
	"mem":   {"Space": true},
	"core":  {"Runtime": true},
	"trace": {"Tracer": true},
	"fault": {"Plan": true},
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			checkGo(pass, n)
		case *ast.SendStmt:
			if t := confinedType(pass.Info.Types[n.Value].Type); t != "" {
				pass.Reportf(n.Arrow,
					"sending mutable simulator state (%s) across a channel: simulator objects are confined to their owning goroutine; send values, not machinery (or //lint:allow confine <reason>)", t)
			}
		}
		return true
	})
	return nil
}

// checkGo flags confined state flowing into a goroutine: captured by
// the closure, passed as an argument, or used as the call's receiver.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	call := g.Call
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		checkCapture(pass, lit)
	} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := pass.Info.Types[sel.X]; ok {
			if t := confinedType(tv.Type); t != "" {
				pass.Reportf(sel.X.Pos(),
					"launching a goroutine on mutable simulator state (%s): its methods mutate state owned by the scheduler goroutine (or //lint:allow confine <reason>)", t)
			}
		}
	}
	for _, arg := range call.Args {
		if tv, ok := pass.Info.Types[arg]; ok {
			if t := confinedType(tv.Type); t != "" {
				pass.Reportf(arg.Pos(),
					"passing mutable simulator state (%s) to a goroutine: simulator objects are confined to their owning goroutine (or //lint:allow confine <reason>)", t)
			}
		}
	}
}

// checkCapture flags free variables of a goroutine closure whose type is
// confined. A variable is free if it is declared outside the literal.
func checkCapture(pass *analysis.Pass, lit *ast.FuncLit) {
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || reported[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // parameter or local of the literal itself
		}
		if t := confinedType(obj.Type()); t != "" {
			reported[obj] = true
			pass.Reportf(id.Pos(),
				"goroutine closure captures mutable simulator state (%q, %s): simulator objects are confined to their owning goroutine; pass values instead (or //lint:allow confine <reason>)",
				obj.Name(), t)
		}
		return true
	})
}

// confinedType reports t's display name if (pointer chains aside) it is
// a registered confined type, or "".
func confinedType(t types.Type) string {
	if t == nil {
		return ""
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	base := path.Base(obj.Pkg().Path())
	if !confined[base][obj.Name()] {
		return ""
	}
	return types.TypeString(named, func(p *types.Package) string {
		return path.Base(p.Path())
	})
}

// Package spanbalance checks that every trace span opened by
// trace.Tracer.Begin is ended exactly once on every exit path of the
// enclosing function.
//
// The tracer's flight recorder keys spans by id: a Begin whose id never
// reaches End leaves a dangling open span in the forensic dump, and a
// double End closes someone else's span once ids are recycled. Both are
// invisible at runtime — the simulator neither crashes nor diverges — so
// the invariant is enforced statically, over the control-flow graph:
// every path from a Begin to a function exit must pass exactly one End
// for that span. A `defer End` (directly or in a deferred closure)
// closes the span on every exit downstream of its registration point.
// Paths that panic are exempt, and spans whose id escapes the function
// (stored, returned, or passed to anything but End) are skipped — some
// other owner is responsible for them.
package spanbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"teleport/internal/analysis"
	"teleport/internal/analysis/cfg"
)

// Analyzer is the spanbalance check.
var Analyzer = &analysis.Analyzer{
	Name: "spanbalance",
	Doc:  "every trace span opened by Begin is ended exactly once on every exit path (defer-aware); flags leaked, discarded, and double-ended spans",
	DefaultFilter: func(pkgPath string) bool {
		// The tracer implements Begin/End; everyone else balances them.
		return pkgPath != "teleport/internal/trace"
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
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
		if body != nil {
			checkFunc(pass, body)
		}
		return true
	})
	return nil
}

// span is one tracked span variable: the object holding the Begin id and
// the position of the (first) Begin that fills it.
type span struct {
	obj types.Object
	pos token.Pos
}

// Per-path span states, tracked as a may-set.
const (
	unborn = 1 << iota // before any Begin (id is zero: End is a no-op)
	open               // Begin executed, End not yet
	closed             // End executed (or a defer End is registered)
)

type evKind int

const (
	evBegin evKind = iota
	evEnd
	evDeferEnd
)

// event is one Begin/End occurrence inside a basic block.
type event struct {
	kind evKind
	obj  types.Object
	pos  token.Pos
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	spans, endArgs := collectSpans(pass, body)
	if len(spans) == 0 {
		return
	}
	tracked := make(map[types.Object]bool, len(spans))
	for _, sp := range spans {
		if !escapes(pass, body, sp.obj, endArgs) {
			tracked[sp.obj] = true
		}
	}
	if len(tracked) == 0 {
		return
	}
	g := cfg.New(body)
	events := make(map[*cfg.Block][]event)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			events[b] = append(events[b], nodeEvents(pass, n, tracked)...)
		}
	}
	for _, sp := range spans {
		if tracked[sp.obj] {
			checkSpan(pass, g, events, sp)
		}
	}
}

// collectSpans finds statement-level Begin sites, reporting discarded
// results on the spot, and records every ident that appears in a
// sanctioned position (Begin target, End argument) for the escape check.
func collectSpans(pass *analysis.Pass, body *ast.BlockStmt) ([]span, map[*ast.Ident]bool) {
	sanctioned := make(map[*ast.Ident]bool)
	// End arguments anywhere — deferred closures included — are
	// sanctioned uses of a span variable.
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id := endArgIdent(pass, call); id != nil {
				sanctioned[id] = true
			}
		}
		return true
	})

	var spans []span
	seen := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own function: analyzed separately
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isTraceCall(pass, call, "Begin") {
				pass.Report(call.Pos(),
					"result of trace Begin is discarded: the span can never be ended; assign the id and End it on every path")
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isTraceCall(pass, call, "Begin") {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true // stored into a field/element: some other owner ends it
			}
			if id.Name == "_" {
				pass.Report(call.Pos(),
					"result of trace Begin is discarded: the span can never be ended; assign the id and End it on every path")
				return true
			}
			obj := pass.Info.ObjectOf(id)
			if obj != nil {
				sanctioned[id] = true
				if !seen[obj] {
					seen[obj] = true
					spans = append(spans, span{obj: obj, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return spans, sanctioned
}

// escapes reports whether obj is used anywhere outside its Begin
// assignments and End arguments — compared, returned, stored, or passed
// along — in which case span ownership has left this function.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, sanctioned map[*ast.Ident]bool) bool {
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || esc {
			return !esc
		}
		// The declaration itself (var sp uint64, sp := Begin) is always
		// sanctioned; other uses must be End arguments or Begin targets.
		if pass.Info.Uses[id] == obj && !sanctioned[id] {
			esc = true
		}
		return true
	})
	return esc
}

// nodeEvents extracts the Begin/End events of one block node in
// evaluation order. A defer registers its End for every downstream exit,
// so it is modelled as closing the span at the registration point; other
// function literals are separate functions and contribute nothing.
func nodeEvents(pass *analysis.Pass, n ast.Node, tracked map[types.Object]bool) []event {
	var evs []event
	if d, ok := n.(*ast.DeferStmt); ok {
		if obj := endArgObj(pass, d.Call); obj != nil && tracked[obj] {
			return []event{{evDeferEnd, obj, d.Call.Pos()}}
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if obj := endArgObj(pass, call); obj != nil && tracked[obj] {
						evs = append(evs, event{evDeferEnd, obj, call.Pos()})
					}
				}
				return true
			})
		}
		return evs
	}
	if _, ok := n.(*ast.GoStmt); ok {
		return nil // runs on another goroutine: no ordering guarantee
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(m.Lhs) == 1 && len(m.Rhs) == 1 {
				if call, ok := m.Rhs[0].(*ast.CallExpr); ok && isTraceCall(pass, call, "Begin") {
					if id, ok := m.Lhs[0].(*ast.Ident); ok {
						obj := pass.Info.ObjectOf(id)
						if obj != nil && tracked[obj] {
							evs = append(evs, event{evBegin, obj, call.Pos()})
						}
					}
				}
			}
		case *ast.CallExpr:
			if obj := endArgObj(pass, m); obj != nil && tracked[obj] {
				evs = append(evs, event{evEnd, obj, m.Pos()})
			}
		}
		return true
	})
	return evs
}

// checkSpan runs the may-analysis for one span variable and reports
// leaks, double Ends, and re-Begins once the state sets converge.
func checkSpan(pass *analysis.Pass, g *cfg.Graph, events map[*cfg.Block][]event, sp span) {
	transfer := func(b *cfg.Block, state uint8, report bool) uint8 {
		if state == 0 {
			return 0 // no path reaches this block
		}
		for _, e := range events[b] {
			if e.obj != sp.obj {
				continue
			}
			switch e.kind {
			case evBegin:
				if report && state&open != 0 {
					pass.Report(e.pos,
						"span variable re-begun while a previous span is still open: the earlier span leaks (End it first)")
				}
				state = open
			case evEnd, evDeferEnd:
				if report && state&closed != 0 {
					pass.Report(e.pos,
						"span already ended on a path reaching this End: double End corrupts the span ledger")
				}
				state = closed
			}
		}
		return state
	}

	in := make([]uint8, len(g.Blocks))
	out := make([]uint8, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			var st uint8
			if b == g.Entry {
				st = unborn
			}
			for _, p := range b.Preds {
				st |= out[p.Index]
			}
			no := transfer(b, st, false)
			if st != in[b.Index] || no != out[b.Index] {
				in[b.Index], out[b.Index] = st, no
				changed = true
			}
		}
	}
	for _, b := range g.Blocks {
		transfer(b, in[b.Index], true)
	}
	if in[g.Exit.Index]&open != 0 {
		pass.Report(sp.pos,
			"span opened here is not ended on every exit path: use defer End or End before each return (or //lint:allow spanbalance <reason>)")
	}
}

// isTraceCall reports whether call invokes the method named name on a
// type declared in a package whose base is "trace".
func isTraceCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && path.Base(fn.Pkg().Path()) == "trace"
}

// endArgIdent returns the span-id ident of a trace End call, if any.
func endArgIdent(pass *analysis.Pass, call *ast.CallExpr) *ast.Ident {
	if !isTraceCall(pass, call, "End") || len(call.Args) == 0 {
		return nil
	}
	id, _ := call.Args[len(call.Args)-1].(*ast.Ident)
	return id
}

// endArgObj resolves the span-id object of a trace End call, if any.
func endArgObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	id := endArgIdent(pass, call)
	if id == nil {
		return nil
	}
	return pass.Info.Uses[id]
}

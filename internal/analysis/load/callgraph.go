package load

import (
	"go/ast"
	"go/types"
)

// This file adds the one-hop call resolution maporder's interprocedural
// check layers on top of the loader: which functions a package declares,
// and which statically resolvable callee a call site names. It is one
// package at a time, with no whole-program virtual-call resolution,
// because ddclint analyzers treat cross-package callees by
// assume-guarantee (the callee's own package run checks its obligation).

// Decls maps every function or method declared (with a body) in one
// type-checked package to its declaration.
func Decls(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// StaticCallee resolves the target of a call expression: a plain
// function, a method (value or pointer receiver, including interface
// methods), or nil for calls through unnamed function values, conversions,
// and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

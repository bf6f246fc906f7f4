// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis (which this repository
// deliberately does not vendor: the module has zero external dependencies
// and the linter must build offline with the standard toolchain alone).
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. The ddclint multichecker (cmd/ddclint) loads every module
// package via internal/analysis/load, runs each analyzer whose
// DefaultFilter admits the package, filters diagnostics through the
// //lint:allow escape hatch (allow.go), and exits non-zero if anything
// survives. The analysistest harness runs a single analyzer over fixture
// packages with // want expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// DefaultFilter reports whether the multichecker should run this
	// analyzer on the package with the given import path. A nil filter
	// means every package. Tests bypass the filter: fixtures are always
	// analyzed.
	DefaultFilter func(pkgPath string) bool

	// Run inspects one package and reports diagnostics via pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Analyzer *Analyzer
	Pos      token.Pos
	Message  string
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Report records a diagnostic.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.diags = append(p.diags, Diagnostic{Analyzer: p.Analyzer, Pos: pos, Message: msg})
}

// Reportf records a formatted diagnostic.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Run executes analyzer a over one type-checked package and returns the
// diagnostics after //lint:allow filtering. Allow-comment hygiene
// diagnostics (missing reason) are appended by the caller via Allows.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	return pass.diags, nil
}

// Inspect walks every file of the pass in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// PkgPathOf resolves a selector expression of the form pkgname.Sel to the
// imported package's path. ok is false when sel.X is not a package
// qualifier (for example a variable of struct type).
func (p *Pass) PkgPathOf(sel *ast.SelectorExpr) (path string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", false
	}
	return pn.Imported().Path(), true
}

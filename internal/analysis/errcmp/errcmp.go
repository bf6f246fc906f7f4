// Package errcmp forbids comparing errors with == or != in internal
// packages.
//
// The runtime's sentinel errors (core.ErrDeadlineExceeded, …) flow through
// retry policies and fault-injection layers that are free to wrap them; a
// direct == comparison silently stops matching the moment a wrapper appears, turning a recoverable failure into an unhandled one.
// errors.Is unwraps, so classification keeps working. Comparisons against
// the nil literal stay idiomatic and are not flagged.
package errcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"teleport/internal/analysis"
)

// Analyzer is the errcmp check.
var Analyzer = &analysis.Analyzer{
	Name: "errcmp",
	Doc:  "forbids ==/!= between error values in internal packages; wrapped sentinels stop matching — use errors.Is",
	DefaultFilter: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "/internal/") || strings.HasPrefix(pkgPath, "internal/")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		if isNil(pass, bin.X) || isNil(pass, bin.Y) {
			return true // err == nil is the idiomatic presence check
		}
		if !isError(pass, bin.X) && !isError(pass, bin.Y) {
			return true
		}
		op := "=="
		if bin.Op == token.NEQ {
			op = "!="
		}
		pass.Reportf(bin.OpPos,
			"error compared with %s; a wrapped sentinel never matches — use errors.Is", op)
		return true
	})
	return nil
}

// isNil reports whether e is the predeclared nil.
func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}

// isError reports whether e's static type is the error interface. Concrete
// types that merely implement error compare by identity on purpose (typed
// codes, *os.PathError-style tests own their semantics), so only the
// interface — where wrapping hides the dynamic value — is flagged.
func isError(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

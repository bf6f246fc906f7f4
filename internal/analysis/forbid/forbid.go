// Package forbid bans the standard-library APIs that break same-seed
// reproducibility. Every result this repository reports is measured in
// virtual nanoseconds (internal/sim) and every random decision derives from
// an explicit seed, so two runs with the same seed are bit-for-bit
// identical; a single time.Now or global rand.Intn couples a run to the
// host and silently breaks that.
//
// The checks are one table of rules and one walker over each file's
// imports and package-qualified selectors. Each rule is its own analyzer,
// so diagnostics, package filters and //lint:allow names stay per rule.
package forbid

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"teleport/internal/analysis"
)

// A rule forbids part of a package's API in the packages its filter admits.
type rule struct {
	name, doc string
	filter    func(pkgPath string) bool
	// banned reports whether a reference into the package at path is
	// forbidden: the import itself when name is "", otherwise the
	// package-level object obj that pkg.name selects.
	banned func(path, name string, obj types.Object) bool
	// msg is the diagnostic, formatted with the import path or pkg.name.
	msg string
}

// wallClock are the time-package entry points that read or wait on the
// wall clock. Pure-value helpers (time.Duration, time.Unix arithmetic on
// explicit inputs) stay legal.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
}

// seeded are the math/rand entry points that do not touch the global
// source; every other package-level func and var does.
var seeded = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

var rules = []rule{{
	// The virtual-clock packages themselves are exempt, and genuinely
	// wall-clock code (the benchmark's timer) opts out per line.
	name: "walltime",
	doc:  "forbids wall-clock time (time.Now, time.Sleep, ...) in simulator packages; all timing must use the virtual clock",
	filter: func(pkgPath string) bool {
		return pkgPath != "teleport/internal/sim" && pkgPath != "teleport/internal/hw"
	},
	banned: func(path, name string, _ types.Object) bool { return path == "time" && wallClock[name] },
	msg:    "wall-clock %s breaks same-seed reproducibility; use the virtual clock (sim.Time) or annotate //lint:allow walltime <reason>",
}, {
	// crypto/rand is nondeterministic by design; the process-global
	// math/rand source is seeded behind the program's back. Type names
	// (rand.Rand, rand.Source) and the seeded constructors are the
	// sanctioned surface.
	name: "seededrand",
	doc:  "forbids math/rand global-source functions and crypto/rand in internal packages; randomness must be explicitly seeded",
	filter: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "/internal/") || strings.HasPrefix(pkgPath, "internal/")
	},
	banned: func(path, name string, obj types.Object) bool {
		if name == "" {
			return path == "crypto/rand"
		}
		_, isType := obj.(*types.TypeName)
		return (path == "math/rand" || path == "math/rand/v2") && !isType && !seeded[name]
	},
	msg: "%s is nondeterministic or draws from the unseeded global source; derive randomness from sim.RNG or a seeded rand.New(rand.NewSource(seed))",
}}

// Analyzers returns one analyzer per rule, in table order.
func Analyzers() []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, len(rules))
	for i := range rules {
		r := &rules[i]
		out[i] = &analysis.Analyzer{Name: r.name, Doc: r.doc, DefaultFilter: r.filter, Run: r.run}
	}
	return out
}

func (r *rule) run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			if path, err := strconv.Unquote(n.Path.Value); err == nil && r.banned(path, "", nil) {
				pass.Reportf(n.Pos(), r.msg, path)
			}
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && r.banned(pn.Imported().Path(), n.Sel.Name, pass.Info.Uses[n.Sel]) {
				pass.Reportf(n.Pos(), r.msg, pn.Imported().Name()+"."+n.Sel.Name)
			}
		}
		return true
	})
	return nil
}

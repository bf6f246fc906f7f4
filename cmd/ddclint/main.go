// ddclint is the repository's determinism linter: a multichecker that
// statically enforces the simulator's reproducibility invariants —
//
//	walltime      no wall-clock time outside the virtual-clock packages
//	seededrand    no unseeded/global randomness in internal packages
//	maporder      no observable output driven by random map iteration
//	nilsafeobs    observability methods are nil-safe by construction
//	virtualclock  time arithmetic stays in the clock's type
//	errcmp        no ==/!= on error values — wrapped sentinels need errors.Is
//	spanbalance   every trace Begin is Ended exactly once on every exit path
//	confine       simulator state never crosses goroutine/channel boundaries
//	maporder+     (interprocedural) iteration values emitted one call hop away
//
// Usage:
//
//	go run ./cmd/ddclint [-list] [packages ...]
//
// Packages default to ./... resolved from the module root. Diagnostics
// print as path:line:col: message (analyzer), sorted by position across
// all packages, and the exit status is 1 if any survive the //lint:allow
// escape hatch (see internal/analysis).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"teleport/internal/analysis"
	"teleport/internal/analysis/confine"
	"teleport/internal/analysis/errcmp"
	"teleport/internal/analysis/forbid"
	"teleport/internal/analysis/load"
	"teleport/internal/analysis/maporder"
	"teleport/internal/analysis/nilsafeobs"
	"teleport/internal/analysis/spanbalance"
	"teleport/internal/analysis/virtualclock"
)

// analyzers is the full determinism suite, in reporting order: the
// forbidden-API rules (walltime, seededrand) first.
var analyzers = append(forbid.Analyzers(),
	maporder.Analyzer,
	nilsafeobs.Analyzer,
	virtualclock.Analyzer,
	errcmp.Analyzer,
	spanbalance.Analyzer,
	confine.Analyzer,
)

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ddclint [-list] [packages ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	n, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddclint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "ddclint: %d issue(s)\n", n)
		os.Exit(1)
	}
}

// run lints the given package patterns and returns the diagnostic count.
// Diagnostics are collected across all packages and printed in one
// position-sorted stream so the output is stable under package-order and
// parallelism changes — the CLI contract the golden test pins.
func run(patterns []string) (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	root, err := load.ModuleRoot(wd)
	if err != nil {
		return 0, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	sess := load.NewSession(root)
	pkgs, err := sess.Module(patterns...)
	if err != nil {
		return 0, err
	}

	// The registered suite, for allow-rot detection: an allow naming an
	// analyzer outside this set can never suppress anything again.
	known := map[string]bool{"lintallow": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		checked := make(map[string]bool)
		for _, a := range analyzers {
			if a.DefaultFilter != nil && !a.DefaultFilter(pkg.Path) {
				continue
			}
			checked[a.Name] = true
			ds, err := analysis.Run(a, sess.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				return 0, err
			}
			diags = append(diags, ds...)
		}
		allows := analysis.CollectAllows(sess.Fset, pkg.Files)
		all = append(all, analysis.FilterAllowed(sess.Fset, diags, allows, checked, known)...)
	}
	analysis.SortDiagnostics(sess.Fset, all)
	for _, d := range all {
		pos := sess.Fset.Position(d.Pos)
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer.Name)
	}
	return len(all), nil
}

// Package load type-checks packages of the enclosing module — and their
// standard-library dependencies — using only the standard toolchain: `go
// list -deps -json` supplies build-tag-filtered file lists in dependency
// order, and go/types checks them from source. It is a minimal,
// offline-capable stand-in for golang.org/x/tools/go/packages, which this
// zero-dependency module does not vendor.
//
// Dependencies are checked with IgnoreFuncBodies (only their exported
// shape matters); module packages get full bodies plus a populated
// types.Info for the analyzers. Fixture packages (testdata trees the go
// tool does not list) are checked by CheckFixture, which resolves their
// imports first against the fixture root and then against the real world.
package load

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// meta is the subset of `go list -json` output the loader consumes.
type meta struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// Package is one type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	// Info is populated for module and fixture packages, nil for bare
	// dependencies.
	Info *types.Info
}

// Session caches type-checked packages across calls so the standard
// library is checked at most once per process.
type Session struct {
	ModuleDir string
	Fset      *token.FileSet
	// FixtureRoot, when set, is consulted first for import paths during
	// CheckFixture: an import "x" resolves to FixtureRoot/x if that
	// directory holds Go files.
	FixtureRoot string

	pkgs  map[string]*Package
	metas map[string]*meta
}

// NewSession returns a session rooted at the module directory (where go
// list will run).
func NewSession(moduleDir string) *Session {
	return &Session{
		ModuleDir: moduleDir,
		Fset:      token.NewFileSet(),
		pkgs:      make(map[string]*Package),
		metas:     make(map[string]*meta),
	}
}

// ModuleRoot locates the enclosing module's root directory from dir.
func ModuleRoot(dir string) (string, error) {
	out, err := runGo(dir, "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return "", err
	}
	root := strings.TrimSpace(string(out))
	if root == "" {
		return "", fmt.Errorf("load: no module found from %s", dir)
	}
	return root, nil
}

// Module lists, parses, and type-checks the module packages matching
// patterns (for example "./..."), returning them in dependency order.
// Standard-library dependencies are checked on the way but not returned.
func (s *Session) Module(patterns ...string) ([]*Package, error) {
	metas, err := s.list(append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, m := range metas {
		p, err := s.check(m)
		if err != nil {
			return nil, err
		}
		if !m.Standard {
			out = append(out, p)
		}
	}
	return out, nil
}

// list runs `go list -json` with the given arguments and records the
// resulting metadata, returned in output (dependency) order.
func (s *Session) list(args ...string) ([]*meta, error) {
	out, err := runGo(s.ModuleDir, append([]string{"list", "-json"}, args...)...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var metas []*meta
	for dec.More() {
		m := new(meta)
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		if _, ok := s.metas[m.ImportPath]; !ok {
			s.metas[m.ImportPath] = m
		}
		metas = append(metas, s.metas[m.ImportPath])
	}
	return metas, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("load: go %s: %v%s", strings.Join(args, " "), err, detail)
	}
	return out, nil
}

// check type-checks one listed package (dependencies first, recursively).
func (s *Session) check(m *meta) (*Package, error) {
	if p, ok := s.pkgs[m.ImportPath]; ok {
		return p, nil
	}
	if m.ImportPath == "unsafe" {
		p := &Package{Path: "unsafe", Types: types.Unsafe}
		s.pkgs["unsafe"] = p
		return p, nil
	}
	files, err := s.parseDir(m.Dir, m.GoFiles)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %v", m.ImportPath, err)
	}
	return s.typeCheck(m.ImportPath, files, m.Standard)
}

// resolve is the importer callback: fixture-local paths first (when a
// fixture root is set), then anything `go list` can name.
func (s *Session) resolve(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if s.FixtureRoot != "" {
		dir := filepath.Join(s.FixtureRoot, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			p, err := s.CheckFixture(dir, path)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	m, ok := s.metas[path]
	if !ok {
		if _, err := s.list("-deps", path); err != nil {
			return nil, err
		}
		if m, ok = s.metas[path]; !ok {
			return nil, fmt.Errorf("load: go list did not yield %q", path)
		}
	}
	p, err := s.check(m)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// CheckFixture parses and fully type-checks the Go files in dir as the
// package importPath. Unlike Module it does not require the go tool to
// know the package, so testdata trees work.
func (s *Session) CheckFixture(dir, importPath string) (*Package, error) {
	if p, ok := s.pkgs[importPath]; ok {
		return p, nil
	}
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	files, err := s.parseDir(dir, names)
	if err != nil {
		return nil, fmt.Errorf("load: fixture %s: %v", importPath, err)
	}
	return s.typeCheck(importPath, files, false)
}

// typeCheck runs go/types over parsed files. Dependencies (std = true)
// skip function bodies and tolerate residual type errors; analyzed
// packages are checked strictly and carry full type info.
func (s *Session) typeCheck(importPath string, files []*ast.File, std bool) (*Package, error) {
	var firstErr error
	conf := types.Config{
		Importer:         importerFunc(s.resolve),
		FakeImportC:      true,
		IgnoreFuncBodies: std,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	var info *types.Info
	if !std {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	tpkg, err := conf.Check(importPath, s.Fset, files, info)
	if !std && firstErr != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", importPath, firstErr)
	}
	if tpkg == nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", importPath, err)
	}
	p := &Package{Path: importPath, Files: files, Types: tpkg, Info: info}
	s.pkgs[importPath] = p
	return p, nil
}

func (s *Session) parseDir(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// goFileNames lists the non-test Go files of a fixture directory, sorted.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

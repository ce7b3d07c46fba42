// Package load type-checks this module's packages using only the standard
// library, so internal/lintrules' served gate (TestEveryFunctionIsServed)
// runs in a fully offline build environment (no golang.org/x/tools, no
// module proxy).
//
// An import path under the go.mod module path is parsed and type-checked
// from source, recursively; every other path resolves to the standard
// library through importer.Default()'s compiled export data.
//
// Only non-test files are loaded: the gate asks what non-test code a binary
// reaches.
package load

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and memoizes packages. It implements types.Importer so the
// type checker resolves transitive imports the same way.
type Loader struct {
	fset *token.FileSet

	repoRoot   string // module root directory
	modulePath string // module path from go.mod

	std  types.Importer
	pkgs map[string]*result
}

type result struct {
	pkg *Package
	err error
}

// NewLoader builds a loader for the module whose go.mod is in repoRoot.
func NewLoader(repoRoot string) (*Loader, error) {
	mod, err := modulePath(filepath.Join(repoRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		fset:       token.NewFileSet(),
		repoRoot:   repoRoot,
		modulePath: mod,
		std:        importer.Default(),
		pkgs:       map[string]*result{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("load: no module directive in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// Load returns the package for an import path, type-checking it from source
// when the path is inside the module.
func (l *Loader) Load(path string) (*Package, error) {
	if r, ok := l.pkgs[path]; ok {
		return r.pkg, r.err
	}
	// Reserve the slot to fail fast on import cycles instead of recursing.
	l.pkgs[path] = &result{err: fmt.Errorf("load: import cycle through %s", path)}
	pkg, err := l.load(path)
	l.pkgs[path] = &result{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) load(path string) (*Package, error) {
	if dir, ok := l.sourceDir(path); ok {
		return l.loadSource(path, dir)
	}
	tp, err := l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Types: tp}, nil
}

// sourceDir resolves an import path inside the module to its directory.
func (l *Loader) sourceDir(path string) (string, bool) {
	if path == l.modulePath {
		return l.repoRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.repoRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isLoadableGoFile(e) {
			return true
		}
	}
	return false
}

func isLoadableGoFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() &&
		strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// buildTagExcludes reports whether a //go:build (or legacy // +build)
// constraint in the file's header excludes it from this platform's build.
// Like the go tool, only the lines before the package clause count. Files
// that cannot be read are not excluded here — the parse step will surface
// the real error.
func buildTagExcludes(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) && !constraint.IsPlusBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			continue
		}
		if !expr.Eval(buildTagOK) {
			return true
		}
	}
	return false
}

// buildTagOK evaluates one constraint tag the way a plain `go build` on this
// platform would: GOOS/GOARCH, the gc toolchain, unix for unix-family
// systems, and any released go1.N version tag are true; custom tags are
// false.
func buildTagOK(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "aix":
			return true
		}
		return false
	}
	return strings.HasPrefix(tag, "go1.")
}

func (l *Loader) loadSource(path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if !isLoadableGoFile(e) {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		if buildTagExcludes(fname) {
			continue
		}
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no Go files in %s (all excluded by build tags, or only _test.go files)", path, dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: l}
	tp, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tp, Info: info}, nil
}

// List returns the import path of every package in the module, sorted:
// the go tool's ./..., which skips testdata, vendor and hidden directories.
func (l *Loader) List() ([]string, error) {
	dirs, err := l.moduleDirs()
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(dirs))
	for i, rel := range dirs {
		if rel == "." {
			paths[i] = l.modulePath
		} else {
			paths[i] = l.modulePath + "/" + rel
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// moduleDirs walks the module tree and returns the relative slash-separated
// directories containing loadable Go files ("." for the module root).
func (l *Loader) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.repoRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.repoRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(l.repoRoot, p)
			if err != nil {
				return err
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

// Package load type-checks this module's packages using only the standard
// library, so the stochlint analyzers can run in a fully offline build
// environment (no golang.org/x/tools, no module proxy).
//
// Resolution order for an import path:
//
//  1. the overlay root (an analysistest-style testdata/src tree, checked
//     first so corpora can fake module packages such as
//     stochstream/internal/engine),
//  2. the module tree (paths under the go.mod module path, parsed and
//     type-checked from source, recursively),
//  3. the standard library via importer.Default()'s compiled export data.
//
// Only non-test files are loaded: every contract stochlint enforces is
// scoped to non-test code, and the allowlisted bitwise-equivalence tests
// live in _test.go files by construction.
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
// type checker resolves transitive imports through the same three-step
// resolution.
type Loader struct {
	Fset *token.FileSet

	repoRoot    string // module root directory; "" disables module resolution
	modulePath  string // module path from go.mod; "" when repoRoot is ""
	overlayRoot string // testdata/src-style root checked first; "" disables

	std  types.Importer
	pkgs map[string]*result
}

type result struct {
	pkg *Package
	err error
}

// NewLoader builds a loader. repoRoot is the directory containing go.mod
// (pass "" for analysistest runs, which must resolve only overlay + stdlib);
// overlayRoot is a testdata/src tree checked before the module (pass "" for
// driver runs over the real tree).
func NewLoader(repoRoot, overlayRoot string) (*Loader, error) {
	l := &Loader{
		Fset:        token.NewFileSet(),
		repoRoot:    repoRoot,
		overlayRoot: overlayRoot,
		pkgs:        map[string]*result{},
	}
	l.std = importer.Default()
	if repoRoot != "" {
		mod, err := modulePath(filepath.Join(repoRoot, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.modulePath = mod
	}
	return l, nil
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
// when the path resolves inside the overlay or the module.
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
	return &Package{Path: path, Fset: l.Fset, Types: tp}, nil
}

// sourceDir resolves an import path to a source directory via the overlay
// and then the module tree.
func (l *Loader) sourceDir(path string) (string, bool) {
	if l.overlayRoot != "" {
		dir := filepath.Join(l.overlayRoot, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	if l.modulePath != "" {
		if path == l.modulePath {
			return l.repoRoot, true
		}
		if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
			return filepath.Join(l.repoRoot, filepath.FromSlash(rest)), true
		}
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
// systems, and any released go1.N version tag are true; custom tags (none
// are ever passed to stochlint) are false.
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
		f, err := parser.ParseFile(l.Fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
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
	tp, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tp, Info: info}, nil
}

// SourcePackages returns every package loaded from source so far (overlay
// and module packages — the ones with Files and full type info), sorted by
// import path. This is the package set the drivers collect //lint:ignore
// directives from: transitive imports are present because Load resolves
// them recursively.
func (l *Loader) SourcePackages() []*Package {
	var out []*Package
	for _, r := range l.pkgs {
		if r.err == nil && r.pkg != nil && len(r.pkg.Files) > 0 {
			out = append(out, r.pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// List expands go-style package patterns ("./...", "./internal/...",
// "./cmd/stochlint") against the module tree and returns matching import
// paths in sorted order. testdata, vendor and hidden directories are
// skipped, matching the go tool's ./... semantics.
func (l *Loader) List(patterns []string) ([]string, error) {
	if l.repoRoot == "" {
		return nil, fmt.Errorf("load: List requires a module root")
	}
	all, err := l.moduleDirs()
	if err != nil {
		return nil, err
	}
	matched := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(strings.TrimSuffix(pat, "/"), "./")
		switch {
		case pat == "..." || pat == "":
			for _, p := range all {
				matched[p] = true
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			for _, rel := range all {
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					matched[rel] = true
				}
			}
		default:
			matched[pat] = true
		}
	}
	paths := make([]string, 0, len(matched))
	for rel := range matched {
		paths = append(paths, rel)
	}
	sort.Strings(paths)
	for i, rel := range paths {
		if rel == "." {
			paths[i] = l.modulePath
		} else {
			paths[i] = l.modulePath + "/" + rel
		}
	}
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

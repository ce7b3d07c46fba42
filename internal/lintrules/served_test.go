package lintrules_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stochstream/internal/lintrules/load"
)

// stdlibCalls names the methods the standard library calls on the module's
// values, through its own interfaces or by reflection (fmt, errors, sort,
// container/heap, net/http, io and the encoding packages), so that no call
// to them appears in the module's source.
var stdlibCalls = []string{
	"Error", "String", "GoString", "Format", "Unwrap", "Is", "As",
	"Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "Read", "Write", "Close",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"MarshalBinary", "UnmarshalBinary", "GobEncode", "GobDecode",
}

// TestEveryFunctionIsServed keeps every non-test function served: reached
// from a binary, or from a test oracle on the allowlist. Code that only its
// own package's tests reach belongs in their _test.go files; code nothing
// reaches is deleted.
//
// The roots are the main of every main package (the cmd/ binaries, bench
// and the examples), every init, and every package-level var and const
// initialiser of the packages those mains and the facade import, and the
// facade exports that a main or the facade's example_test.go names. The
// facade's own declarations are served only by their users: a facade
// function, var, const or type is walked when a root or reached code names
// it, so an export that only a test names is not served. A function reaches
// every function and method its body names. A call
// through an interface, a type assertion to an interface, and a method the
// standard library calls (stdlibCalls) dispatch by name: they reach every
// method of that name whose receiver type reached code constructs — by a
// composite literal, new, or a conversion — which over-approximates what is
// served, never under. A type nothing reached constructs has no value to
// call a method on, so dispatch alone does not serve its methods.
//
// testdata/served.allow lists the oracles, one "<entry> <reason>" a line.
// An entry is an import path, naming the package's functions, or an import
// path with ".Func", ".Type" or ".Type.Method" appended; a type names its
// methods and the package's functions that return it. Allowlisted code is a
// root, so what an oracle calls stays. An entry that names nothing, or names
// only code a binary reaches already, fails the test.
func TestEveryFunctionIsServed(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := load.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.List()
	if err != nil {
		t.Fatal(err)
	}
	g := &reachGraph{pkgs: map[string]*load.Package{}, decls: map[*types.Func]funcDecl{}, byName: map[string][]*types.Func{}, byType: map[*types.TypeName][]*types.Func{}}
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		g.add(p)
	}
	roots := g.roots(t, filepath.Join(root, "example_test.go"))
	served := g.reach(roots, nil)

	var oracles []*types.Func
	for _, e := range readAllowlist(t, filepath.Join("testdata", "served.allow")) {
		fns := g.entry(e.name)
		if len(fns) == 0 {
			t.Errorf("served.allow:%d: %s names no function of the module", e.line, e.name)
			continue
		}
		redundant := true
		for _, fn := range fns {
			redundant = redundant && served[fn]
		}
		if redundant {
			t.Errorf("served.allow:%d: a binary reaches all of %s; delete the entry", e.line, e.name)
		}
		oracles = append(oracles, fns...)
	}

	reached := g.reach(roots, oracles)
	var unreached []string
	for fn, d := range g.decls {
		if !reached[fn] {
			pos := d.pkg.Fset.Position(d.decl.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			unreached = append(unreached, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, fn.FullName()))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached from no binary: move it into the _test.go files of the package whose tests call it, allowlist it as an oracle with its reason, or delete it", u)
	}
}

type funcDecl struct {
	pkg  *load.Package
	decl *ast.FuncDecl
}

// reachNode is a root: a declaration whose body or initialiser is served.
type reachNode struct {
	pkg  *load.Package
	node ast.Node
}

// reachGraph holds the module's non-test functions and the declarations
// their reach is read from.
type reachGraph struct {
	pkgs   map[string]*load.Package
	decls  map[*types.Func]funcDecl
	byName map[string][]*types.Func // concrete methods, for dispatch by name
	byType map[*types.TypeName][]*types.Func
	facade string                     // the module path
	specs  map[types.Object]reachNode // the facade's package-level declarations
}

func (g *reachGraph) add(p *load.Package) {
	g.pkgs[p.Path] = p
	if g.facade == "" || len(p.Path) < len(g.facade) {
		g.facade = p.Path
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := p.Info.Defs[fd.Name].(*types.Func)
			g.decls[fn] = funcDecl{pkg: p, decl: fd}
			if fd.Recv != nil {
				g.byName[fn.Name()] = append(g.byName[fn.Name()], fn)
				tn := recvType(fn)
				g.byType[tn] = append(g.byType[tn], fn)
			}
		}
	}
}

// roots returns the mains, the inits, the facade exports the mains and the
// facade's examples name, and the package-level declarations of every
// package the mains and the facade link, the facade's own excepted: those
// are walked from the references that reach them.
func (g *reachGraph) roots(t *testing.T, examples string) []reachNode {
	linked := map[string]bool{}
	var link func(path string)
	link = func(path string) {
		p, ok := g.pkgs[path]
		if !ok || linked[path] {
			return
		}
		linked[path] = true
		for _, imp := range p.Types.Imports() {
			link(imp.Path())
		}
	}
	for path, p := range g.pkgs {
		if p.Types.Name() == "main" || path == g.facade {
			link(path)
		}
	}
	facade := g.pkgs[g.facade]
	g.specs = map[types.Object]reachNode{}
	for _, f := range facade.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							g.specs[facade.Info.Defs[name]] = reachNode{facade, spec}
						}
					case *ast.TypeSpec:
						g.specs[facade.Info.Defs[spec.Name]] = reachNode{facade, spec}
					}
				}
			}
		}
	}
	var roots []reachNode
	for path := range linked {
		p := g.pkgs[path]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if path != g.facade {
						roots = append(roots, reachNode{p, d})
					}
				case *ast.FuncDecl:
					name := d.Name.Name
					isMain := p.Types.Name() == "main" && name == "main" && d.Recv == nil
					isInit := name == "init" && d.Recv == nil
					if isMain || isInit {
						roots = append(roots, reachNode{p, d})
					}
				}
			}
		}
	}
	for _, name := range facadeNames(t, examples, g.facade) {
		switch obj := facade.Types.Scope().Lookup(name).(type) {
		case *types.Func:
			roots = append(roots, reachNode{facade, g.decls[obj].decl})
		case nil:
			t.Fatalf("%s names %s, which the facade does not declare", filepath.Base(examples), name)
		default:
			roots = append(roots, g.specs[obj])
		}
	}
	return roots
}

// facadeNames returns the names a test file selects from the facade
// package (the X of every facade.X), read syntactically.
func facadeNames(t *testing.T, path, facade string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	local := ""
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == facade {
			local = facade[strings.LastIndex(facade, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				names = append(names, sel.Sel.Name)
			}
		}
		return true
	})
	return names
}

// entry resolves an allowlist entry to the functions it names.
func (g *reachGraph) entry(name string) []*types.Func {
	var p *load.Package
	for path, q := range g.pkgs {
		if (name == path || strings.HasPrefix(name, path+".")) && (p == nil || len(path) > len(p.Path)) {
			p = q
		}
	}
	if p == nil {
		return nil
	}
	var target *types.TypeName
	if sel := strings.TrimPrefix(strings.TrimPrefix(name, p.Path), "."); sel != "" {
		typ, method, isMethod := strings.Cut(sel, ".")
		switch obj := p.Types.Scope().Lookup(typ).(type) {
		case *types.Func:
			if !isMethod {
				return []*types.Func{obj}
			}
		case *types.TypeName:
			if !isMethod {
				target = obj
				break
			}
			if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.Types, method); m != nil {
				if fn, ok := m.(*types.Func); ok && g.decls[fn].decl != nil {
					return []*types.Func{fn}
				}
			}
		}
		if target == nil {
			return nil
		}
	}
	var fns []*types.Func
	for fn, d := range g.decls {
		if d.pkg == p && (target == nil || namesType(fn.Type().(*types.Signature), target)) {
			fns = append(fns, fn)
		}
	}
	return fns
}

// namesType reports whether a function is a method of the type or returns
// it.
func namesType(sig *types.Signature, tn *types.TypeName) bool {
	is := func(t types.Type) bool {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Origin().Obj() == tn
	}
	if sig.Recv() != nil {
		return is(sig.Recv().Type())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if is(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// recvType is the named type a method is declared on.
func recvType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// reach returns every function reached from the roots and the given
// functions.
func (g *reachGraph) reach(roots []reachNode, fns []*types.Func) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	dispatched := map[string]bool{}
	constructed := map[*types.TypeName]bool{}
	var queue []*types.Func
	var mark func(fn *types.Func)
	dispatch := func(name string) {
		if !dispatched[name] {
			dispatched[name] = true
			for _, m := range g.byName[name] {
				if constructed[recvType(m)] {
					mark(m)
				}
			}
		}
	}
	construct := func(t types.Type) {
		named, ok := types.Unalias(t).(*types.Named)
		if !ok || constructed[named.Origin().Obj()] {
			return
		}
		tn := named.Origin().Obj()
		constructed[tn] = true
		for _, m := range g.byType[tn] {
			if dispatched[m.Name()] {
				mark(m)
			}
		}
	}
	mark = func(fn *types.Func) {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			dispatch(fn.Name())
			return
		}
		if _, ok := g.decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	dispatchInterface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				dispatch(it.Method(i).Name())
			}
		}
	}
	walkedSpec := map[ast.Node]bool{}
	var walk func(p *load.Package, n ast.Node)
	walk = func(p *load.Package, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if spec, ok := g.specs[p.Info.Uses[n]]; ok && !walkedSpec[spec.node] {
					walkedSpec[spec.node] = true
					walk(spec.pkg, spec.node) // a facade declaration, served by this use
				}
				switch obj := p.Info.Uses[n].(type) {
				case *types.Func:
					mark(obj)
				case *types.Const:
					construct(obj.Type()) // a typed constant is a value
				}
			case *ast.CompositeLit:
				construct(p.Info.TypeOf(n))
			case *ast.ValueSpec:
				if n.Type != nil {
					construct(p.Info.TypeOf(n.Type)) // a variable holds a zero value
				}
			case *ast.TypeSpec:
				if p.Path == g.facade && n.Name.IsExported() {
					construct(p.Info.Defs[n.Name].Type()) // the facade's users construct it
				}
			case *ast.CallExpr:
				if tv := p.Info.Types[n.Fun]; tv.IsType() {
					construct(tv.Type) // a conversion
				} else if b, ok := p.Info.Uses[calleeIdent(n.Fun)].(*types.Builtin); ok && b.Name() == "new" {
					construct(p.Info.TypeOf(n.Args[0]))
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					dispatchInterface(p.Info.TypeOf(n.Type))
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						dispatchInterface(p.Info.TypeOf(e))
					}
				}
			}
			return true
		})
	}

	for _, name := range stdlibCalls {
		dispatch(name)
	}
	for _, fn := range fns {
		mark(fn)
	}
	for _, r := range roots {
		if fd, ok := r.node.(*ast.FuncDecl); ok {
			mark(r.pkg.Info.Defs[fd.Name].(*types.Func))
		} else {
			walk(r.pkg, r.node)
		}
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := g.decls[fn]
		walk(d.pkg, d.decl)
	}
	return reached
}

// calleeIdent is the identifier a call's function expression names, if it is
// one, parenthesised or not.
func calleeIdent(fun ast.Expr) *ast.Ident {
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.Ident:
			return f
		default:
			return nil
		}
	}
}

type allowEntry struct {
	line int
	name string
}

// readAllowlist reads "<entry> <reason>" lines; blank lines and lines
// starting with # are skipped. An entry without a reason is an error.
func readAllowlist(t *testing.T, path string) []allowEntry {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []allowEntry
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", filepath.Base(path), i+1, name)
		}
		entries = append(entries, allowEntry{i + 1, name})
	}
	return entries
}

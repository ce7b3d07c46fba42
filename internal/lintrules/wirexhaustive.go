package lintrules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/dataflow"
)

// Wirexhaustive enforces protocol exhaustiveness over the daemon's wire
// contract. The wire package's frame-type and error-code constants ARE the
// protocol; the classic rot is asymmetric evolution — a new frame type the
// daemon emits but the client's dispatch never cases, an error code the
// server can send that the client decodes to a generic error, or a raw
// 0x03 literal in endpoint code that silently diverges when the constant
// table is renumbered. Two checks:
//
//   - endpoint coverage: for every package that engages a wire constant
//     group at all (directly or through any call chain — reaching the wire
//     package's own code↔error translators counts), every constant of that
//     group must be reachable from the package's code. A client that can
//     never produce a given sentinel, or a daemon switch that can never see
//     a frame type, surfaces here.
//   - no raw protocol literals outside the wire package: an integer
//     literal used as a case label beside wire constants, passed as a
//     wire function's typ/code parameter, assigned to a Code/Type field of
//     a wire struct, or compared against one, must be the named constant.
//
// Constant groups are discovered by convention: package-level integer
// constants named Type<X> / Code<X> in a package named "wire". Mentions
// inside _test.go files do not count (the loader excludes them) — protocol
// tests exercising raw bytes stay free.
const wirexhaustiveName = "wirexhaustive"

var Wirexhaustive = &analysis.Analyzer{
	Name: wirexhaustiveName,
	Doc:  "wire frame-type and error-code constants must be handled exhaustively at both endpoints",
	Run:  runWirexhaustive,
}

// wireGroup is one protocol constant group of a wire package.
type wireGroup struct {
	kind   string // "frame type" or "error code"
	pkg    *types.Package
	consts []*types.Const // name order
	set    map[*types.Const]bool
}

var wireGroupPrefixes = []struct{ prefix, kind string }{
	{"Type", "frame type"},
	{"Code", "error code"},
}

// wireGroupsOf discovers the protocol constant groups of every wire-named
// package in the program, and the union index of their constants.
func wireGroupsOf(prog *dataflow.Program) ([]*wireGroup, map[*types.Const]*wireGroup) {
	var groups []*wireGroup
	index := map[*types.Const]*wireGroup{}
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() != "wire" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, pk := range wireGroupPrefixes {
			g := &wireGroup{kind: pk.kind, pkg: pkg.Types, set: map[*types.Const]bool{}}
			for _, name := range scope.Names() {
				rest, ok := strings.CutPrefix(name, pk.prefix)
				if !ok || rest == "" || rest[0] < 'A' || rest[0] > 'Z' {
					continue
				}
				c, ok := scope.Lookup(name).(*types.Const)
				if !ok {
					continue
				}
				if b, ok := c.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
					continue
				}
				g.consts = append(g.consts, c)
				g.set[c] = true
			}
			if len(g.consts) >= 2 {
				groups = append(groups, g)
				for c := range g.set {
					index[c] = g
				}
			}
		}
	}
	return groups, index
}

// wireMentionFact is one function's transitive set of wire-group constants.
type wireMentionFact map[*types.Const]bool

func wireMentionEq(a, b interface{}) bool {
	x, _ := a.(wireMentionFact)
	y, _ := b.(wireMentionFact)
	if len(x) != len(y) {
		return false
	}
	for c := range x {
		if !y[c] {
			return false
		}
	}
	return true
}

// wireDirectMentions scans one function body for uses of wire-group
// constants, in source order.
func wireDirectMentions(f *dataflow.Func, index map[*types.Const]*wireGroup) []*types.Const {
	var out []*types.Const
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if c, ok := f.Pkg.Info.Uses[id].(*types.Const); ok && index[c] != nil {
			out = append(out, c)
		}
		return true
	})
	return out
}

func wireMentionFacts(prog *dataflow.Program, index map[*types.Const]*wireGroup) *dataflow.FactStore {
	transfer := func(f *dataflow.Func, store *dataflow.FactStore) interface{} {
		sum := wireMentionFact{}
		for _, c := range wireDirectMentions(f, index) {
			sum[c] = true
		}
		for _, call := range f.Calls {
			if sub, _ := store.Get(call.StaticObj).(wireMentionFact); sub != nil {
				for c := range sub {
					sum[c] = true
				}
			}
		}
		return sum
	}
	return prog.Facts("wirementions", transfer, wireMentionEq)
}

func runWirexhaustive(pass *analysis.Pass) (interface{}, error) {
	prog, _ := pass.Facts.(*dataflow.Program)
	if prog == nil {
		return nil, nil
	}
	groups, index := wireGroupsOf(prog)
	if len(groups) == 0 {
		return nil, nil
	}
	if pass.Pkg.Name() == "wire" {
		return nil, nil // the table itself: TestCodeErrMapping pins its code↔sentinel translators
	}
	checkEndpointCoverage(pass, prog, groups, index)
	checkRawWireLiterals(pass, prog, index)
	return nil, nil
}

// checkEndpointCoverage reports wire constants a participating endpoint
// package can never reach.
func checkEndpointCoverage(pass *analysis.Pass, prog *dataflow.Program, groups []*wireGroup, index map[*types.Const]*wireGroup) {
	store := wireMentionFacts(prog, index)
	funcs := prog.FuncsOf(pass.Pkg.Path())

	for _, g := range groups {
		if g.pkg == pass.Pkg {
			continue
		}
		reached := map[*types.Const]bool{}
		var firstDirect, firstTransitive token.Pos
		for _, f := range funcs {
			sum, _ := store.Get(f.Obj).(wireMentionFact)
			engaged := false
			for c := range sum {
				if g.set[c] {
					reached[c] = true
					engaged = true
				}
			}
			if engaged && !firstTransitive.IsValid() {
				firstTransitive = f.Decl.Pos()
			}
			if !firstDirect.IsValid() {
				for _, c := range wireDirectMentions(f, index) {
					if g.set[c] {
						firstDirect = f.Decl.Pos()
						break
					}
				}
			}
		}
		anchor := firstDirect
		if !anchor.IsValid() {
			anchor = firstTransitive
		}
		if len(reached) == 0 {
			continue // this package does not speak this group at all
		}
		for _, c := range g.consts {
			if !reached[c] {
				pass.Reportf(anchor,
					"package %s handles %ss but can never reach %s (%s): a peer sending it falls into the generic path; every protocol constant must be handled at both endpoints",
					pass.Pkg.Name(), g.kind, c.Name(), g.pkg.Path())
			}
		}
	}
}

// checkRawWireLiterals flags integer literals standing in for wire
// constants outside the wire package.
func checkRawWireLiterals(pass *analysis.Pass, prog *dataflow.Program, index map[*types.Const]*wireGroup) {
	wirePkgs := map[*types.Package]bool{}
	for _, g := range index {
		wirePkgs[g.pkg] = true
	}
	isWireField := func(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return "", false
		}
		fld, ok := s.Obj().(*types.Var)
		if !ok || fld.Pkg() == nil || !wirePkgs[fld.Pkg()] {
			return "", false
		}
		if fld.Name() != "Code" && fld.Name() != "Type" {
			return "", false
		}
		return fld.Name(), true
	}
	intLit := func(e ast.Expr) *ast.BasicLit {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.INT {
			return nil
		}
		return lit
	}
	report := func(lit *ast.BasicLit, what string) {
		pass.Reportf(lit.Pos(),
			"raw %s literal %s outside the wire package: use the named wire constant — the constant table is the protocol contract",
			what, lit.Value)
	}
	for _, f := range prog.FuncsOf(pass.Pkg.Path()) {
		info := f.Pkg.Info
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SwitchStmt:
				// A literal case label beside wire-constant labels.
				var g *wireGroup
				for _, stmt := range x.Body.List {
					for _, e := range stmt.(*ast.CaseClause).List {
						if id, ok := ast.Unparen(e).(*ast.Ident); ok {
							if c, ok := info.Uses[id].(*types.Const); ok && index[c] != nil {
								g = index[c]
							}
						}
						if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
							if c, ok := info.Uses[sel.Sel].(*types.Const); ok && index[c] != nil {
								g = index[c]
							}
						}
					}
				}
				if g == nil {
					return true
				}
				for _, stmt := range x.Body.List {
					for _, e := range stmt.(*ast.CaseClause).List {
						if lit := intLit(ast.Unparen(e)); lit != nil {
							report(lit, g.kind)
						}
					}
				}
			case *ast.CallExpr:
				// A literal passed as a wire function's typ/code parameter.
				fn := dataflow.CalleeObj(info, x)
				if fn == nil || fn.Pkg() == nil || !wirePkgs[fn.Pkg()] {
					return true
				}
				params := fn.Signature().Params()
				for i, arg := range x.Args {
					if i >= params.Len() {
						break
					}
					name := params.At(i).Name()
					if name != "typ" && name != "code" {
						continue
					}
					if lit := intLit(ast.Unparen(arg)); lit != nil {
						if name == "typ" {
							report(lit, "frame type")
						} else {
							report(lit, "error code")
						}
					}
				}
			case *ast.CompositeLit:
				// A literal assigned to a wire struct's Code/Type field.
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					id, ok := kv.Key.(*ast.Ident)
					if !ok || (id.Name != "Code" && id.Name != "Type") {
						continue
					}
					fld, ok := info.Uses[id].(*types.Var)
					if !ok || fld.Pkg() == nil || !wirePkgs[fld.Pkg()] {
						continue
					}
					if lit := intLit(ast.Unparen(kv.Value)); lit != nil {
						report(lit, strings.ToLower(id.Name)+" field")
					}
				}
			case *ast.BinaryExpr:
				// A literal compared against a wire struct's Code/Type field.
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				sides := []struct{ sel, lit ast.Expr }{{x.X, x.Y}, {x.Y, x.X}}
				for _, s := range sides {
					sel, ok := ast.Unparen(s.sel).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if name, ok := isWireField(info, sel); ok {
						if lit := intLit(ast.Unparen(s.lit)); lit != nil {
							report(lit, strings.ToLower(name)+" field comparison")
						}
					}
				}
			}
			return true
		})
	}
}

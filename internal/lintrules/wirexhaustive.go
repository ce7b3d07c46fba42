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
// table is renumbered. Three checks:
//
//   - endpoint coverage: for every package that engages a wire constant
//     group at all (directly or through any call chain — reaching the wire
//     package's own code↔error translators counts), every constant of that
//     group must be reachable from the package's code. A client that can
//     never produce a given sentinel, or a daemon switch that can never see
//     a frame type, surfaces here.
//   - code↔sentinel bijectivity, inside the wire package: the code→error
//     decoder switch must carry an explicit case for every code constant,
//     no two codes may map to the same sentinel, and the error→code
//     encoder must agree with the decoder in reverse (the encoder's
//     default-returned code counts as the implicit mapping for the
//     decoder's sentinel of that code).
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
		checkWireBijectivity(pass, prog, groups)
		return nil, nil
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

// wireSwitchMaps extracts the code→sentinel map of a decoder switch
// (`switch code { case CodeX: return ErrY }`) and the sentinel→code map
// plus default code of an encoder switch
// (`switch { case errors.Is(err, ErrY): return CodeX; default: return CodeD }`).
type wireCodecMaps struct {
	decoder     map[*types.Const]*types.Var // explicit case → returned sentinel (nil if opaque)
	hasDecoder  bool
	encoder     map[*types.Var]*types.Const
	defaultCode *types.Const
}

func collectWireCodecs(prog *dataflow.Program, pkg *types.Package, g *wireGroup) *wireCodecMaps {
	m := &wireCodecMaps{
		decoder: map[*types.Const]*types.Var{},
		encoder: map[*types.Var]*types.Const{},
	}
	constOf := func(info *types.Info, e ast.Expr) *types.Const {
		switch x := e.(type) {
		case *ast.Ident:
			c, _ := info.Uses[x].(*types.Const)
			return c
		case *ast.SelectorExpr:
			c, _ := info.Uses[x.Sel].(*types.Const)
			return c
		}
		return nil
	}
	sentinelOf := func(info *types.Info, e ast.Expr) *types.Var {
		switch x := e.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && v.Parent() != nil && !v.IsField() {
				return v
			}
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				return v
			}
		}
		return nil
	}
	returnedExpr := func(body []ast.Stmt) ast.Expr {
		if len(body) != 1 {
			return nil
		}
		ret, ok := body[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return nil
		}
		return ret.Results[0]
	}
	for _, f := range prog.FuncsOf(pkg.Path()) {
		info := f.Pkg.Info
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if sw.Tag != nil {
				// Candidate decoder: group constants as case labels.
				hits := 0
				for _, stmt := range sw.Body.List {
					cc := stmt.(*ast.CaseClause)
					for _, e := range cc.List {
						if c := constOf(info, e); c != nil && g.set[c] {
							hits++
						}
					}
				}
				if hits < 2 {
					return true
				}
				m.hasDecoder = true
				for _, stmt := range sw.Body.List {
					cc := stmt.(*ast.CaseClause)
					for _, e := range cc.List {
						c := constOf(info, e)
						if c == nil || !g.set[c] {
							continue
						}
						m.decoder[c] = sentinelOf(info, returnedExpr(cc.Body))
					}
				}
				return true
			}
			// Candidate encoder: tagless switch of errors.Is(err, ErrX)
			// cases returning group constants.
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				code := constOf(info, returnedExpr(cc.Body))
				if code == nil || !g.set[code] {
					continue
				}
				if cc.List == nil {
					m.defaultCode = code
					continue
				}
				for _, e := range cc.List {
					call, ok := e.(*ast.CallExpr)
					if !ok || len(call.Args) != 2 {
						continue
					}
					if fn := dataflow.CalleeObj(info, call); fn == nil || fn.Name() != "Is" {
						continue
					}
					if s := sentinelOf(info, call.Args[1]); s != nil {
						m.encoder[s] = code
					}
				}
			}
			return true
		})
	}
	return m
}

// checkWireBijectivity verifies, inside the wire package itself, that the
// code↔sentinel translators form a bijection over the code constants.
func checkWireBijectivity(pass *analysis.Pass, prog *dataflow.Program, groups []*wireGroup) {
	for _, g := range groups {
		if g.pkg != pass.Pkg || g.kind != "error code" {
			continue
		}
		m := collectWireCodecs(prog, pass.Pkg, g)
		if !m.hasDecoder {
			continue
		}
		bySentinel := map[*types.Var]*types.Const{}
		for _, c := range g.consts {
			sent, explicit := m.decoder[c]
			if !explicit {
				pass.Reportf(c.Pos(),
					"error code %s has no explicit case in the code→error decoder: the peer rebuilds it as an anonymous error and errors.Is can never match a sentinel; map it explicitly",
					c.Name())
				continue
			}
			if sent == nil {
				continue // explicitly handled, but not via a sentinel — out of the bijection
			}
			if prev := bySentinel[sent]; prev != nil {
				pass.Reportf(c.Pos(),
					"error codes %s and %s both decode to sentinel %s: the code↔sentinel mapping must be injective",
					prev.Name(), c.Name(), sent.Name())
				continue
			}
			bySentinel[sent] = c
			if back, ok := m.encoder[sent]; ok {
				if back != c {
					pass.Reportf(c.Pos(),
						"code %s decodes to sentinel %s but the error→code encoder maps %s back to %s: encode and decode must agree",
						c.Name(), sent.Name(), sent.Name(), back.Name())
				}
			} else if m.defaultCode != c {
				pass.Reportf(c.Pos(),
					"code %s decodes to sentinel %s but the error→code encoder never maps %s to any code: encode and decode must agree",
					c.Name(), sent.Name(), sent.Name())
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

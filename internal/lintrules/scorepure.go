package lintrules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/dataflow"
)

// Scorepure enforces the paper's purity contract on scoring paths: every
// function reachable from a policy's ScoreCandidates method must be a pure
// function of (stream state, seed) — no mutation of operator state (writes
// rooted at the receiver or at package-level variables, deletes from
// receiver maps, sends on shared channels) and no I/O (fmt print family,
// log, os). Writes through non-receiver parameters are allowed: that is
// the out-buffer idiom scoreAll uses, and the caller sees the buffer it
// handed in.
//
// core.ForecastCache is the blessed memoization seam: its methods mutate
// the cache deterministically from stream state, so they are allowlisted
// and never contribute impurity. A reasoned //lint:ignore scorepure on an
// effect (or on a call forwarding one) kills the impurity for every
// transitive caller.
var Scorepure = &analysis.Analyzer{
	Name: scorepureName,
	Doc:  "scoring paths (ScoreCandidates and everything it reaches) must not mutate operator state or perform I/O",
	Run:  runScorepure,
}

const scorepureName = "scorepure"

// scorepurePkgs are the packages whose scoring roots anchor the analysis;
// impurity inside them reports at the effect, impurity beyond them reports
// at the frontier call site.
var scorepurePkgs = []string{
	"stochstream/internal/policy",
}

// forecastCachePath/forecastCacheType identify the allowlisted memoization
// type.
const (
	forecastCachePath = "stochstream/internal/core"
	forecastCacheType = "ForecastCache"
)

// impureFact mirrors taintFact: nil means pure; otherwise what/pos identify
// the root effect and via the callee it arrives through.
type impureFact struct {
	what string
	pos  token.Position
	via  *types.Func
}

func impureEq(a, b interface{}) bool {
	x, _ := a.(*impureFact)
	y, _ := b.(*impureFact)
	if x == nil || y == nil {
		return x == y
	}
	return x.what == y.what && x.pos == y.pos && x.via == y.via
}

// isForecastCacheMethod reports whether obj is a method of the allowlisted
// core.ForecastCache type.
func isForecastCacheMethod(obj *types.Func) bool {
	recv := obj.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == forecastCacheType &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == forecastCachePath
}

// sideEffect is one direct impurity in a function body.
type sideEffect struct {
	pos  token.Pos
	what string
}

// rootIdent peels selectors, indexes, slices, derefs and parens down to the
// base identifier of an lvalue chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// isRefType reports whether t can alias state reachable from the receiver
// (pointers, maps, slices, channels): value copies of receiver fields are
// local and writable.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}

// directEffects scans one function body for impurities. recvObj is the
// receiver variable (nil for plain functions); locals that alias
// receiver-reachable reference state are tracked so `e := p.inc[id]; e.h = x`
// counts as receiver mutation.
func directEffects(info *types.Info, f *dataflow.Func) []sideEffect {
	body := f.Decl.Body
	recvAliases := map[types.Object]bool{}
	if r := f.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
		if obj := info.Defs[r.List[0].Names[0]]; obj != nil {
			recvAliases[obj] = true
		}
	}
	rooted := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := identObj(info, id)
		return obj != nil && recvAliases[obj]
	}
	// Alias fixed point: locals assigned reference-typed values rooted at
	// the receiver join the alias set.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Comma-ok map reads (e, ok := p.inc[k]) bind the value to the
			// first LHS only.
			if len(as.Lhs) == 2 && len(as.Rhs) == 1 && rooted(as.Rhs[0]) {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if obj := identObj(info, id); obj != nil && !isPackageLevel(obj) && !recvAliases[obj] && isRefType(obj.Type()) {
						recvAliases[obj] = true
						changed = true
					}
				}
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !rooted(rhs) {
					continue
				}
				if tv, ok := info.Types[rhs]; !ok || !isRefType(tv.Type) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObj(info, id)
				if obj != nil && !isPackageLevel(obj) && !recvAliases[obj] {
					recvAliases[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	var out []sideEffect
	lvalue := func(lhs ast.Expr, at token.Pos) {
		id := rootIdent(lhs)
		if id == nil {
			return
		}
		obj := identObj(info, id)
		if obj == nil {
			return
		}
		switch {
		case recvAliases[obj]:
			// Rebinding a local alias (e := p.inc[k]) is not a mutation;
			// only writes through it (e.h = v, e[i] = v, *e = v) are.
			if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
				return
			}
			out = append(out, sideEffect{at, "mutates receiver state (" + types.ExprString(lhs) + ")"})
		case isPackageLevel(obj) && !isPkgName(obj):
			out = append(out, sideEffect{at, "writes package-level state (" + types.ExprString(lhs) + ")"})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				lvalue(lhs, lhs.Pos())
			}
		case *ast.IncDecStmt:
			lvalue(n.X, n.X.Pos())
		case *ast.SendStmt:
			if id := rootIdent(n.Chan); id != nil {
				if obj := identObj(info, id); obj != nil && (recvAliases[obj] || isPackageLevel(obj) && !isPkgName(obj)) {
					out = append(out, sideEffect{n.Arrow, "sends on shared channel " + types.ExprString(n.Chan)})
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "delete" && info.Uses[fun] == nil && info.Defs[fun] == nil && len(n.Args) > 0 && rooted(n.Args[0]) {
					out = append(out, sideEffect{n.Pos(), "deletes from receiver map " + types.ExprString(n.Args[0])})
				}
				if (fun.Name == "println" || fun.Name == "print") && info.Uses[fun] == nil && info.Defs[fun] == nil {
					out = append(out, sideEffect{n.Pos(), "performs I/O (builtin " + fun.Name + ")"})
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[id].(*types.PkgName); ok {
						out = append(out, ioEffects(pn.Imported().Path(), fun, n)...)
					}
				}
			}
		}
		return true
	})
	return out
}

// isPkgName guards rootIdent results like the `pkg` of pkg.Var: the
// PkgName object is package-level by construction but names no state.
func isPkgName(obj types.Object) bool {
	_, ok := obj.(*types.PkgName)
	return ok
}

// ioEffects classifies calls into I/O-performing stdlib packages.
func ioEffects(pkgPath string, fun *ast.SelectorExpr, call *ast.CallExpr) []sideEffect {
	name := fun.Sel.Name
	switch pkgPath {
	case "fmt":
		// Sprint*/Errorf are pure; Print* writes stdout, Fprint* a writer.
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return []sideEffect{{call.Pos(), "performs I/O (fmt." + name + ")"}}
		}
	case "log":
		return []sideEffect{{call.Pos(), "performs I/O (log." + name + ")"}}
	case "os":
		return []sideEffect{{call.Pos(), "touches ambient process state (os." + name + ")"}}
	}
	return nil
}

// scorepureFacts computes per-function impurity summaries.
func scorepureFacts(prog *dataflow.Program) *dataflow.FactStore {
	transfer := func(f *dataflow.Func, store *dataflow.FactStore) interface{} {
		if isForecastCacheMethod(f.Obj) {
			return (*impureFact)(nil) // blessed memoization seam
		}
		for _, e := range directEffects(f.Pkg.Info, f) {
			if prog.Sup.Suppresses(scorepureName, prog.Fset.Position(e.pos)) {
				continue
			}
			return &impureFact{what: e.what, pos: prog.Fset.Position(e.pos)}
		}
		for _, c := range f.Calls {
			if c.StaticObj != nil && isForecastCacheMethod(c.StaticObj) {
				continue
			}
			fact, _ := store.Get(c.StaticObj).(*impureFact)
			if fact == nil {
				continue
			}
			if prog.Sup.Suppresses(scorepureName, prog.Fset.Position(c.Site.Pos())) {
				continue
			}
			return &impureFact{what: fact.what, pos: fact.pos, via: c.StaticObj}
		}
		return (*impureFact)(nil)
	}
	return prog.Facts(scorepureName, transfer, impureEq)
}

// impureChain renders the hop chain to the root effect.
func impureChain(prog *dataflow.Program, store *dataflow.FactStore, fact *impureFact) string {
	chain := ""
	for hops := 0; fact != nil && fact.via != nil && hops < 12; hops++ {
		if f := prog.FuncOf(fact.via); f != nil {
			chain += f.Name() + " → "
		} else {
			chain += fact.via.Name() + " → "
		}
		fact, _ = store.Get(fact.via).(*impureFact)
	}
	if fact == nil {
		return chain + "?"
	}
	return chain + fact.what
}

func runScorepure(pass *analysis.Pass) (interface{}, error) {
	prog, _ := pass.Facts.(*dataflow.Program)
	if prog == nil {
		return nil, nil // reachability needs the whole-program call graph
	}
	store := scorepureFacts(prog)

	// Roots: ScoreCandidates methods declared in this package.
	type item struct {
		f    *dataflow.Func
		root string
	}
	var queue []item
	for _, f := range prog.FuncsOf(pass.Pkg.Path()) {
		if f.Obj.Name() == "ScoreCandidates" && f.Obj.Signature().Recv() != nil {
			queue = append(queue, item{f, f.Name()})
		}
	}
	reached := map[*dataflow.Func]string{}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if _, ok := reached[it.f]; ok {
			continue
		}
		reached[it.f] = it.root
		for _, c := range it.f.Calls {
			if c.Callee != nil && !isForecastCacheMethod(c.StaticObj) {
				queue = append(queue, item{c.Callee, it.root})
			}
		}
	}

	for _, f := range prog.FuncsOf(pass.Pkg.Path()) {
		root, ok := reached[f]
		if !ok {
			continue
		}
		// Direct effects in this package report at the effect itself.
		for _, e := range directEffects(pass.TypesInfo, f) {
			pass.Reportf(e.pos, "%s on the scoring path from %s: scoring must be a pure function of (stream state, seed) so replacement decisions replay bit-identically; memoize through core.ForecastCache or restructure, or //lint:ignore scorepure with a reason",
				e.what, root)
		}
		// Impurity beyond this package reports once, at the frontier call.
		for _, c := range f.Calls {
			fact, _ := store.Get(c.StaticObj).(*impureFact)
			if fact == nil || c.Callee == nil {
				continue
			}
			calleePkg := c.Callee.Pkg.Path
			if calleePkg == pass.Pkg.Path() || inAny(calleePkg, scorepurePkgs) {
				continue
			}
			pass.Reportf(c.Site.Pos(), "call to %s on the scoring path from %s is impure (%s): scoring must be a pure function of (stream state, seed); memoize through core.ForecastCache or move the effect off the scoring path",
				c.Callee.Name(), root, impureChain(prog, store, fact))
		}
	}
	return nil, nil
}

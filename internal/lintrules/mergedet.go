package lintrules

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/dataflow"
)

// Mergedet is the static twin of shardrt's TestMergeOrder: the merged
// emission order of the sharded runtime must derive only from ingress
// sequence IDs, never from channel-receive or goroutine-completion order.
// Data that arrives over a channel (`res := <-sh.res`, `for v := range ch`)
// is in scheduling order — which shard finished first — and letting that
// order escape (returned, or stored into a struct field or package
// variable) makes replay diverge run to run even with identical inputs.
//
// The analyzer runs a small taint pass per function: channel receives and
// calls to functions summarized as returning arrival-ordered data are
// sources; returns and persistent stores are sinks; a sort by sequence
// numbers — sort.Slice/SliceStable or slices.SortFunc/SortStableFunc with a
// comparator that reads only seq-named fields (mergeKey style), or a call
// to a helper that does so to its parameter — sanitizes, provided the sort
// is on a CFG path before the sink. Summaries propagate both directions
// across packages: a helper that returns arrival order taints its callers'
// results, a helper that seq-sorts its slice parameter sanitizes at the
// call site, and a helper that builds its result out of a slice parameter
// hands the argument's taint to its result — unless it is a merge, choosing
// every element it appends by a seq-only comparison (the runtime's
// mergeRuns), whose result is in seq order whatever order the runs came in.
const mergedetName = "mergedet"

var Mergedet = &analysis.Analyzer{
	Name: mergedetName,
	Doc:  "merged emission order must derive from seq IDs, not channel-receive or goroutine-completion order",
	Run:  runMergedet,
}

// mergeFact is one function's summary for the analysis.
type mergeFact struct {
	// seqOnly: the body reads only seq-named fields and calls only other
	// seqOnly functions — safe as (part of) a merge comparator.
	seqOnly bool
	// sortsBySeq[i] (ParamVars index space): the function seq-sorts its
	// i-th slice parameter, directly or through a callee.
	sortsBySeq []bool
	// returnsArrival: some return value derives from channel-receive order
	// with no seq sort before it.
	returnsArrival bool
	// relaysOrder[i] (ParamVars index space): some return value is built
	// out of the i-th slice parameter with neither a seq sort before it nor
	// a seq-only comparison choosing its elements, so an arrival-ordered
	// argument comes back arrival-ordered.
	relaysOrder []bool
}

func mergeEq(a, b interface{}) bool {
	x, _ := a.(*mergeFact)
	y, _ := b.(*mergeFact)
	if x == nil || y == nil {
		return x == y
	}
	return x.seqOnly == y.seqOnly && x.returnsArrival == y.returnsArrival &&
		slices.Equal(x.sortsBySeq, y.sortsBySeq) && slices.Equal(x.relaysOrder, y.relaysOrder)
}

// bodySeqOnly reports whether node reads only sequence-numbered state: every
// struct field it selects has "seq" in its name, it performs no channel
// receives, and every call target is a builtin, a type conversion, one of
// package cmp's pure comparisons, or a module function already summarized
// seqOnly.
func bodySeqOnly(info *types.Info, store *dataflow.FactStore, node ast.Node) bool {
	ok := true
	ast.Inspect(node, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
				if !hasSeqName(s.Obj().Name()) {
					ok = false
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ok = false
			}
		case *ast.CallExpr:
			fun := unparenExpr(n.Fun)
			if tv, isType := info.Types[fun]; isType && tv.IsType() {
				return true // conversion
			}
			if id, isIdent := fun.(*ast.Ident); isIdent {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
			callee := dataflow.CalleeObj(info, n)
			if callee == nil {
				ok = false
				return false
			}
			if callee.Pkg() != nil && callee.Pkg().Path() == "cmp" {
				return true
			}
			cf, _ := store.Get(callee).(*mergeFact)
			if cf == nil || !cf.seqOnly {
				ok = false
			}
		}
		return true
	})
	return ok
}

func hasSeqName(name string) bool {
	lower := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	s := string(lower)
	for i := 0; i+3 <= len(s); i++ {
		if s[i:i+3] == "seq" {
			return true
		}
	}
	return false
}

// comparatorSorts are the standard-library sorts that order a slice (first
// argument) by a comparator (second argument).
var comparatorSorts = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true,
	"slices.SortFunc": true, "slices.SortStableFunc": true,
}

// mergeViolation is one arrival-order escape in a function body.
type mergeViolation struct {
	pos      token.Pos
	isReturn bool
	what     string // "returned" or the stored lvalue description
}

// orderFlow tracks which local variables carry the order of some origin —
// channel-receive order, or one slice parameter's element order — through
// assignments, append chains, slicing, indexing, field selection and range
// loops.
type orderFlow struct {
	info  *types.Info
	store *dataflow.FactStore
	// arrival makes channel receives, and calls summarized as returning
	// arrival order, origins of the flow.
	arrival bool
	vars    map[types.Object]bool
}

// carries reports whether e's value holds the tracked order.
func (fl *orderFlow) carries(e ast.Expr) bool {
	switch e := unparenExpr(e).(type) {
	case *ast.Ident:
		obj := identObj(fl.info, e)
		return obj != nil && fl.vars[obj]
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return fl.arrival // receive: the arrival-order source
		}
		return e.Op == token.AND && fl.carries(e.X)
	case *ast.SliceExpr:
		return fl.carries(e.X)
	case *ast.IndexExpr:
		return fl.carries(e.X)
	case *ast.SelectorExpr:
		return fl.carries(e.X) // field of an order-carrying value
	case *ast.CallExpr:
		if id, ok := unparenExpr(e.Fun).(*ast.Ident); ok {
			if b, ok := fl.info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "append" && slices.ContainsFunc(e.Args, fl.carries)
			}
		}
		callee := dataflow.CalleeObj(fl.info, e)
		if callee == nil {
			return false
		}
		cf, _ := fl.store.Get(callee).(*mergeFact)
		if cf == nil {
			return false
		}
		if fl.arrival && cf.returnsArrival {
			return true
		}
		for k, arg := range e.Args {
			if j := dataflow.ArgParamIndex(callee, k); j < len(cf.relaysOrder) && cf.relaysOrder[j] && fl.carries(arg) {
				return true
			}
		}
	}
	return false
}

// mark adds the variable at the root of lhs to the flow.
func (fl *orderFlow) mark(lhs ast.Expr) bool {
	r := dataflow.RootOf(fl.info, lhs)
	if r.Obj == nil || fl.vars[r.Obj] {
		return false
	}
	fl.vars[r.Obj] = true
	return true
}

// run closes vars over body: a carrying right-hand side marks its target,
// and ranging over a channel (under arrival) or over a carrying collection
// marks the loop variables.
func (fl *orderFlow) run(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				multi := len(n.Rhs) == 1 && len(n.Lhs) > 1 // v, ok := <-ch
				for i, lhs := range n.Lhs {
					rhs := n.Rhs[0]
					if !multi && i < len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					if fl.carries(rhs) && fl.mark(lhs) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				tv, ok := fl.info.Types[n.X]
				if !ok {
					return true
				}
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if fl.arrival && n.Key != nil && fl.mark(n.Key) {
						changed = true
					}
				} else if n.Value != nil && fl.carries(n.X) && fl.mark(n.Value) {
					changed = true
				}
			}
			return true
		})
	}
}

// chosenBySeq reports whether every branch condition of body that looks at
// the flow's values is a seq-only comparison, and at least one is: the shape
// of a merge, which appends whichever run's head the sequence numbers put
// first. A comparator that consults anything else — an arrival stamp to
// break ties, say — leaves the result in the order the runs came in.
func (fl *orderFlow) chosenBySeq(body *ast.BlockStmt) bool {
	chosen, seqOnly := false, true
	check := func(cond ast.Expr) {
		if cond == nil || !seqOnly {
			return
		}
		looks, compares := false, false
		ast.Inspect(cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := identObj(fl.info, n); obj != nil && fl.vars[obj] {
					looks = true
				}
			case *ast.SelectorExpr:
				if s := fl.info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
					compares = true
				}
			case *ast.CallExpr:
				if dataflow.CalleeObj(fl.info, n) != nil {
					compares = true
				}
			}
			return true
		})
		if !looks || !compares {
			return // a length or index test chooses nothing
		}
		if bodySeqOnly(fl.info, fl.store, cond) {
			chosen = true
		} else {
			seqOnly = false
		}
	}
	skipFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.IfStmt:
			check(n.Cond)
		case *ast.ForStmt:
			check(n.Cond)
		case *ast.SwitchStmt:
			check(n.Tag)
		case *ast.CaseClause:
			for _, e := range n.List {
				check(e)
			}
		}
	})
	return chosen && seqOnly
}

// mergeAnalyze runs the per-function taint pass and returns the function's
// summary inputs: its violations, which slice parameters it seq-sorts, and
// which it relays to a result unsorted. It reads callee summaries only
// through store, so it is safe inside the fixed-point transfer.
func mergeAnalyze(f *dataflow.Func, store *dataflow.FactStore) (violations []mergeViolation, sortsParam, relaysParam []bool) {
	info := f.Pkg.Info
	body := f.Decl.Body

	// --- taint: which variables hold arrival-ordered data ---
	taint := &orderFlow{info: info, store: store, arrival: true, vars: map[types.Object]bool{}}
	taint.run(body)
	taintedExpr := taint.carries

	// --- sanitize sites: root object → nodes where it is seq-sorted ---
	sortSites := map[types.Object][]ast.Node{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// sort.Slice / sort.SliceStable / slices.SortFunc / slices.SortStableFunc
		// with a seq-only comparator.
		if sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) == 2 {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok && comparatorSorts[pn.Imported().Path()+"."+sel.Sel.Name] {
					if lit, ok := unparenExpr(call.Args[1]).(*ast.FuncLit); ok && bodySeqOnly(info, store, lit.Body) {
						if r := dataflow.RootOf(info, call.Args[0]); r.Obj != nil {
							sortSites[r.Obj] = append(sortSites[r.Obj], call)
						}
					}
					return true
				}
			}
		}
		// A callee that seq-sorts its slice parameter sanitizes the argument.
		if callee := dataflow.CalleeObj(info, call); callee != nil {
			cf, _ := store.Get(callee).(*mergeFact)
			if cf != nil {
				for k, arg := range call.Args {
					j := dataflow.ArgParamIndex(callee, k)
					if j < len(cf.sortsBySeq) && cf.sortsBySeq[j] {
						if r := dataflow.RootOf(info, arg); r.Obj != nil {
							sortSites[r.Obj] = append(sortSites[r.Obj], call)
						}
					}
				}
			}
		}
		return true
	})

	cfg := f.CFG()
	sanitized := func(e ast.Expr, sink ast.Node) bool {
		r := dataflow.RootOf(info, e)
		if r.Obj == nil {
			return false
		}
		sinkSite, ok := cfg.SiteOf(sink)
		if !ok {
			return false
		}
		for _, sn := range sortSites[r.Obj] {
			if ss, ok := cfg.SiteOf(sn); ok && cfg.ReachableAfter(ss, sinkSite) {
				return true
			}
		}
		return false
	}

	// --- sinks: returns and persistent stores (function literals skipped:
	// their returns are not this function's). Only ordered collections
	// escape arrival order — a scalar or error pulled out of a received
	// value carries no sequence.
	ordered := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Array:
			return true
		}
		return false
	}
	skipFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if ordered(res) && taintedExpr(res) && !sanitized(res, n) {
					violations = append(violations, mergeViolation{pos: n.Pos(), isReturn: true, what: "returned"})
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !isPersistentLvalue(info, lhs) {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if ordered(rhs) && taintedExpr(rhs) && !sanitized(rhs, n) {
					violations = append(violations, mergeViolation{pos: n.Pos(), what: "stored"})
				}
			}
		}
	})

	// --- sortsBySeq and relaysOrder over the parameter index space ---
	params := dataflow.ParamVars(f.Obj)
	sortsParam = make([]bool, len(params))
	relaysParam = make([]bool, len(params))
	for i, v := range params {
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			continue
		}
		if len(sortSites[v]) > 0 {
			sortsParam[i] = true
		}
		from := &orderFlow{info: info, store: store, vars: map[types.Object]bool{v: true}}
		from.run(body)
		returned := false
		skipFuncLits(body, func(n ast.Node) {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if ordered(res) && from.carries(res) && !sanitized(res, ret) {
						returned = true
					}
				}
			}
		})
		relaysParam[i] = returned && !from.chosenBySeq(body)
	}
	return violations, sortsParam, relaysParam
}

// mergedetFacts computes (or returns the memoized) per-function merge-order
// summaries for the whole program.
func mergedetFacts(prog *dataflow.Program) *dataflow.FactStore {
	transfer := func(f *dataflow.Func, store *dataflow.FactStore) interface{} {
		violations, sortsParam, relaysParam := mergeAnalyze(f, store)
		fact := &mergeFact{
			seqOnly:     bodySeqOnly(f.Pkg.Info, store, f.Decl.Body),
			sortsBySeq:  sortsParam,
			relaysOrder: relaysParam,
		}
		for _, v := range violations {
			if v.isReturn && !prog.Sup.Suppresses(mergedetName, prog.Fset.Position(v.pos)) {
				fact.returnsArrival = true
				break
			}
		}
		return fact
	}
	return prog.Facts(mergedetName, transfer, mergeEq)
}

func runMergedet(pass *analysis.Pass) (interface{}, error) {
	prog, _ := pass.Facts.(*dataflow.Program)
	if prog == nil {
		return nil, nil // summaries need whole-program context
	}
	store := mergedetFacts(prog)
	for _, f := range prog.FuncsOf(pass.Pkg.Path()) {
		violations, _, _ := mergeAnalyze(f, store)
		for _, v := range violations {
			pass.Reportf(v.pos, "merged result %s in arrival order: it derives from channel-receive order (scheduling-dependent), not ingress seq IDs; sort by the sequence numbers (mergeKey/sortPairs style) before emitting — this is the static twin of TestMergeOrder", v.what)
		}
	}
	return nil, nil
}

package lintrules

import (
	"go/ast"
	"go/types"

	"stochstream/internal/lintrules/analysis"
)

// enginePath is the package whose Step buffer-reuse contract Stepretain
// enforces.
const enginePath = "stochstream/internal/engine"

// Stepretain enforces the engine's buffer-reuse contract: the slices
// returned by (*engine.Join).Step and (*engine.Join).StepBatch, and the Batch
// (*engine.Join).StepRun returns with its slices, are owned by the operator
// and valid only until the next Step/StepBatch/StepRun call, so callers must
// not retain them (or any sub-slice or field of one) beyond the step. The
// type system cannot express this; the analyzer flags the stores that outlive
// the step:
//
//   - assignment of a Step result (or a sub-slice or field of one) into a
//     struct field, a package-level variable, or an element of either,
//   - a Step result placed in a composite literal field,
//   - the same stores through a local variable the result was first
//     assigned to (one level of intra-function flow).
//
// Copying the pairs out (append(dst, result...) or an element read
// result[i]) is fine — Pair is a value type — and is not flagged.
var Stepretain = &analysis.Analyzer{
	Name: "stepretain",
	Doc:  "flag retention of engine.Step results beyond the step (valid-until-next-Step contract)",
	Run:  runStepretain,
}

func runStepretain(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkStepretainBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkStepretainBody(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

func checkStepretainBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: local variables holding a Step result (one level of flow).
	tainted := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isStepResult(pass.TypesInfo, rhs, tainted) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := identObj(pass.TypesInfo, id); obj != nil && !isPackageLevel(obj) {
					tainted[obj] = true
				}
			}
		}
		return true
	})

	// Pass 2: stores of a Step result (direct or via a tainted local) into
	// anything that outlives the step.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if isStepResult(pass.TypesInfo, rhs, tainted) && isPersistentLvalue(pass.TypesInfo, n.Lhs[i]) {
					report(pass, rhs)
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isStepResult(pass.TypesInfo, v, tainted) {
					report(pass, v)
				}
			}
		}
		return true
	})
}

func report(pass *analysis.Pass, at ast.Expr) {
	pass.Reportf(at.Pos(), "engine.Step result retained beyond the step: the returned slice is reused by the next Step/StepBatch call; copy the pairs (append(dst, res...)) before storing them")
}

// isStepResult reports whether e is a call to (*engine.Join).Step (or
// StepBatch, StepRun), a sub-slice or field of one, or a local variable
// holding one.
func isStepResult(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return isStepResult(info, e.X, tainted)
	case *ast.SliceExpr:
		return isStepResult(info, e.X, tainted)
	case *ast.SelectorExpr:
		s := info.Selections[e]
		return s != nil && s.Kind() == types.FieldVal && isStepResult(info, e.X, tainted)
	case *ast.CallExpr:
		return isStepCall(info, e)
	case *ast.Ident:
		obj := identObj(info, e)
		return obj != nil && tainted[obj]
	}
	return false
}

func isStepCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || (fn.Name() != "Step" && fn.Name() != "StepBatch" && fn.Name() != "StepRun") {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	return ok && named.Obj().Name() == "Join" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == enginePath
}

// isPersistentLvalue reports whether the assignment target outlives the
// enclosing function's current step: a struct field, a package-level
// variable, or an element of either.
func isPersistentLvalue(info *types.Info, lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.ParenExpr:
		return isPersistentLvalue(info, lhs.X)
	case *ast.SelectorExpr:
		if s := info.Selections[lhs]; s != nil && s.Kind() == types.FieldVal {
			return true
		}
		// Qualified package-level var: pkg.V.
		if obj, ok := info.Uses[lhs.Sel].(*types.Var); ok {
			return isPackageLevel(obj)
		}
		return false
	case *ast.Ident:
		obj := identObj(info, lhs)
		return obj != nil && isPackageLevel(obj)
	case *ast.IndexExpr:
		return isPersistentLvalue(info, lhs.X)
	}
	return false
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

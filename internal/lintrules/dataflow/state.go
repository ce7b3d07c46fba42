package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// Field-read summaries: the whole-program facts under fingerprintcover.
// For every function the summary records which struct fields the function —
// or anything it transitively calls — reads. Field identity is the
// *types.Var of the field declaration, so reads through any receiver or
// alias of the same struct type aggregate onto one object, and summaries
// compose across package boundaries exactly like the solver's facts.
//
// A field is read when its value is used: as an operand, as the base of a
// deeper selector chain (x.agg in x.agg.n = v), as the receiver of a method
// call, and as the target of a compound assignment or ++/--, which read the
// old value. The target of a plain store (x.a = v, a range assignment) is
// not read.

// FieldSummary is one function's transitive field-read summary.
type FieldSummary struct {
	Reads map[*types.Var]bool
}

func newFieldSummary() *FieldSummary {
	return &FieldSummary{Reads: map[*types.Var]bool{}}
}

func (s *FieldSummary) union(o *FieldSummary) {
	if o == nil {
		return
	}
	for f := range o.Reads {
		s.Reads[f] = true
	}
}

func fieldSummaryEq(a, b interface{}) bool {
	x, _ := a.(*FieldSummary)
	y, _ := b.(*FieldSummary)
	if x == nil || y == nil {
		return x == y
	}
	return maps.Equal(x.Reads, y.Reads)
}

const fieldFactsName = "fieldreads"

// FieldFacts returns the memoized per-function field-read summaries for the
// whole program: each function's direct reads unioned with the summaries of
// everything it statically calls, solved bottom-up over the call graph.
// Calls through interfaces and function values contribute nothing (nil
// summary).
func FieldFacts(prog *Program) *FactStore {
	transfer := func(f *Func, store *FactStore) interface{} {
		sum := newFieldSummary()
		sum.union(f.DirectFieldReads())
		for _, c := range f.Calls {
			cs, _ := store.Get(c.StaticObj).(*FieldSummary)
			sum.union(cs)
		}
		return sum
	}
	return prog.Facts(fieldFactsName, transfer, fieldSummaryEq)
}

// FieldSummaryOf reads one function's summary out of a FieldFacts store;
// nil when the function is external or dynamic.
func FieldSummaryOf(store *FactStore, obj *types.Func) *FieldSummary {
	s, _ := store.Get(obj).(*FieldSummary)
	return s
}

// fieldOf resolves sel to the struct field it selects, or nil when sel is
// not a field selection (method values, qualified identifiers, …).
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s := info.Selections[sel]; s != nil {
		if s.Kind() != types.FieldVal {
			return nil
		}
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	// No selection entry: qualified identifier (pkg.X) — not a field.
	return nil
}

// DirectFieldReads returns the function's own (non-transitive) field
// reads, built on first use. fingerprintcover uses it to name the exact
// function whose body reads a config field; FieldFacts layers the call-graph
// closure on top.
func (f *Func) DirectFieldReads() *FieldSummary {
	f.fieldOnce.Do(func() { f.fieldSum = collectFieldReads(f) })
	return f.fieldSum
}

// collectFieldReads computes one function's direct summary by walking its
// body (nested function literals included, matching Func flattening).
func collectFieldReads(f *Func) *FieldSummary {
	info := f.Pkg.Info
	sum := newFieldSummary()
	// stored holds the selectors that are plain store targets, so the
	// selector visit below does not record them as reads.
	stored := map[ast.Node]bool{}
	store := func(lhs ast.Expr) {
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			stored[sel] = true
		}
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN || x.Tok == token.DEFINE {
				for _, lhs := range x.Lhs {
					store(lhs)
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					store(x.Key)
				}
				if x.Value != nil {
					store(x.Value)
				}
			}
		case *ast.SelectorExpr:
			if stored[x] {
				return true
			}
			if fld := fieldOf(info, x); fld != nil {
				sum.Reads[fld] = true
			}
		}
		return true
	})
	return sum
}

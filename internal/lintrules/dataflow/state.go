package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Field-access summaries: the whole-program facts under the statecheck
// analyzer suite (snapcomplete, fingerprintcover). For every function the
// summary records which struct fields the function — or anything it
// transitively calls — reads, writes, or mutates. Field identity is the
// *types.Var of the field declaration, so accesses through any receiver or
// alias of the same struct type aggregate onto one object, and summaries
// compose across package boundaries exactly like the solver's facts.
//
// The three access kinds:
//
//   - Read:   the field's value is used (including as the base of a deeper
//     selector chain in a read context, and as the receiver of a
//     value-receiver method call).
//   - Write:  the field itself is assigned — plain assignment, compound
//     assignment, ++/--, a keyed or positional composite-literal entry, or a
//     whole-struct store through a pointer (*p = v writes every field).
//   - Mutate: the field's pointee or element state changes without the field
//     being reassigned — it is indexed or dereferenced on the left of an
//     assignment, its address is taken, it is the first argument of the copy
//     builtin, or it receives a pointer- or interface-receiver method call.
//
// Serialization-completeness consumes them as: "persistent" fields are
// writes ∪ mutates of operational code, the encoded set is the encoder's
// transitive reads, and the decoder's touched set is reads ∪ writes ∪
// mutates (a decoder may legitimately read a field only to validate it).

// FieldSummary is one function's transitive field-access summary.
type FieldSummary struct {
	Reads, Writes, Mutates map[*types.Var]bool
}

func newFieldSummary() *FieldSummary {
	return &FieldSummary{
		Reads:   map[*types.Var]bool{},
		Writes:  map[*types.Var]bool{},
		Mutates: map[*types.Var]bool{},
	}
}

// Touches reports whether the summary accesses fld in any way.
func (s *FieldSummary) Touches(fld *types.Var) bool {
	if s == nil {
		return false
	}
	return s.Reads[fld] || s.Writes[fld] || s.Mutates[fld]
}

// WritesOrMutates reports whether the summary writes or mutates fld — the
// "operational write" notion serialization completeness is defined over.
func (s *FieldSummary) WritesOrMutates(fld *types.Var) bool {
	if s == nil {
		return false
	}
	return s.Writes[fld] || s.Mutates[fld]
}

func (s *FieldSummary) union(o *FieldSummary) {
	if o == nil {
		return
	}
	for f := range o.Reads {
		s.Reads[f] = true
	}
	for f := range o.Writes {
		s.Writes[f] = true
	}
	for f := range o.Mutates {
		s.Mutates[f] = true
	}
}

func fieldSummaryEq(a, b interface{}) bool {
	x, _ := a.(*FieldSummary)
	y, _ := b.(*FieldSummary)
	if x == nil || y == nil {
		return x == y
	}
	return setEq(x.Reads, y.Reads) && setEq(x.Writes, y.Writes) && setEq(x.Mutates, y.Mutates)
}

func setEq(a, b map[*types.Var]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if !b[f] {
			return false
		}
	}
	return true
}

const fieldFactsName = "fieldaccess"

// FieldFacts returns the memoized per-function field-access summaries for
// the whole program: each function's direct accesses unioned with the
// summaries of everything it statically calls, solved bottom-up over the
// call graph. Calls through interfaces and function values contribute
// nothing (nil summary) — the conservative direction differs per consumer,
// so the consumers add their own slack (snapcomplete treats a dynamic
// method call on a field as a mutation of that field, which the direct
// collector already records).
func FieldFacts(prog *Program) *FactStore {
	transfer := func(f *Func, store *FactStore) interface{} {
		sum := newFieldSummary()
		sum.union(f.DirectFieldAccesses())
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

// DirectFieldAccesses returns the function's own (non-transitive) field
// accesses, built on first use. Analyzers that must attribute an access to
// the exact function whose body contains it — snapcomplete's operational
// writers — use this; FieldFacts layers the call-graph closure on top.
func (f *Func) DirectFieldAccesses() *FieldSummary {
	f.fieldOnce.Do(func() { f.fieldSum = collectFieldAccesses(f) })
	return f.fieldSum
}

// collectFieldAccesses computes one function's direct summary by walking its
// body (nested function literals included, matching Func flattening).
func collectFieldAccesses(f *Func) *FieldSummary {
	info := f.Pkg.Info
	sum := newFieldSummary()
	// written holds the exact selector nodes consumed as plain write targets,
	// so the default selector visit below does not also record them as reads.
	written := map[ast.Node]bool{}

	// markChain marks the base chain under a write/mutate target: every field
	// selector between the target and the root variable is mutated (storing
	// through j.m.Steps changes the aggregate j.m holds).
	var markChain func(e ast.Expr)
	markChain = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			markChain(x.X)
		case *ast.StarExpr:
			markChain(x.X)
		case *ast.IndexExpr:
			markChain(x.X)
		case *ast.SliceExpr:
			markChain(x.X)
		case *ast.SelectorExpr:
			if fld := fieldOf(info, x); fld != nil {
				sum.Mutates[fld] = true
			}
			markChain(x.X)
		}
	}

	// markWrite classifies one assignment target: the outermost field
	// selector is a write; anything reached through an index, slice or
	// dereference — and the rest of the chain — is a mutation.
	markWrite := func(lhs ast.Expr) {
		e := lhs
		for {
			pe, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = pe.X
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if fld := fieldOf(info, x); fld != nil {
				sum.Writes[fld] = true
				written[x] = true
			}
			markChain(x.X)
		case *ast.IndexExpr, *ast.SliceExpr:
			markChain(e)
		case *ast.StarExpr:
			// A whole-struct store through a pointer writes every field of
			// the pointed-to struct (the H1/H2 `*h = out` restore idiom).
			if st, ok := derefStruct(info.TypeOf(x.X)); ok {
				for i := 0; i < st.NumFields(); i++ {
					sum.Writes[st.Field(i)] = true
				}
			}
			markChain(x.X)
		}
	}

	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
				if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
					// Compound assignment reads the old value too; the write
					// marking suppressed the default read.
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if fld := fieldOf(info, sel); fld != nil {
							sum.Reads[fld] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
			if sel, ok := x.X.(*ast.SelectorExpr); ok {
				if fld := fieldOf(info, sel); fld != nil {
					sum.Reads[fld] = true
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					markWrite(x.Key)
				}
				if x.Value != nil {
					markWrite(x.Value)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markChain(x.X)
			}
		case *ast.CallExpr:
			// copy(dst, src) mutates dst's element state.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 2 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					markChain(x.Args[0])
				}
			}
			// A pointer- or interface-receiver method call on a field mutates
			// it (the callee's effects on its own receiver are otherwise
			// invisible to this type's summary — the receiver's fields belong
			// to another struct).
			if fun, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if s := info.Selections[fun]; s != nil && s.Kind() == types.MethodVal {
					if recvMayMutate(s) {
						markChain(fun.X)
					}
				}
			}
		case *ast.CompositeLit:
			st, ok := derefStruct(info.TypeOf(x))
			if !ok {
				return true
			}
			keyed := false
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				if id, ok := kv.Key.(*ast.Ident); ok {
					if fld, ok := info.Uses[id].(*types.Var); ok && fld.IsField() {
						sum.Writes[fld] = true
					}
				}
			}
			if !keyed && len(x.Elts) > 0 {
				// Positional struct literal: every field is written.
				for i := 0; i < st.NumFields(); i++ {
					sum.Writes[st.Field(i)] = true
				}
			}
		case *ast.SelectorExpr:
			if written[x] {
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

// recvMayMutate reports whether a method call through sel can change its
// receiver: pointer receivers can, interface receivers must be assumed to,
// value receivers cannot.
func recvMayMutate(sel *types.Selection) bool {
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return true
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if types.IsInterface(t) {
		return true
	}
	_, isPtr := types.Unalias(t).(*types.Pointer)
	return isPtr
}

// derefStruct resolves t (through pointers and names) to its struct type.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		t = n.Underlying()
	}
	st, ok := t.(*types.Struct)
	return st, ok
}

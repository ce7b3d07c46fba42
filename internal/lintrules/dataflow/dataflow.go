// Package dataflow is the interprocedural layer under stochlint: a
// lightweight layer over go/ast + go/types giving the analyzers a bottom-up
// call graph over the module's packages, a generic fixed-point solver with a
// per-analysis fact store, and per-function field-read summaries
// (state.go), so analyzers can export per-function summaries and import
// their callees' summaries across package boundaries.
//
// The design mirrors the shape (not the machinery) of
// golang.org/x/tools/go/ssa + go/callgraph: this repository builds offline
// with the standard library only, and the analyzers need far less than full
// SSA — their summaries are small monotone lattices over the static call
// graph.
//
// Soundness model: the call graph contains only statically resolved calls
// (package functions and methods on concrete receiver types). Calls through
// interfaces, function values and reflection are not edges; an analyzer
// that needs conservatism for those must add it itself. This matches the
// suite's posture — the determinism contracts are enforced on the concrete
// decision paths, and the dynamic seams (join.Policy, process.Process) are
// covered by the differential and chaos harnesses instead.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"stochstream/internal/lintrules/load"
)

// Program is the whole-program context: every source-loaded package, the
// function index and the call graph in bottom-up SCC order.
type Program struct {
	Fset *token.FileSet
	Pkgs []*load.Package

	funcs map[*types.Func]*Func
	byPkg map[string][]*Func
	order []*Func   // all functions, deterministic (pkg path, file, pos) order
	sccs  [][]*Func // bottom-up: callees' SCCs before callers'

	mu    sync.Mutex
	facts map[string]*FactStore
}

// Func is one module function or method with a body. Function literals are
// flattened into their enclosing declaration: their statements contribute
// to the enclosing Func's calls and effects (an over-approximation — the
// literal may never run — which is the conservative direction for every
// analysis in the suite).
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *load.Package
	// Calls are the function's call sites in source order, including those
	// inside nested function literals.
	Calls []Call

	fieldOnce sync.Once
	fieldSum  *FieldSummary
}

// Name returns a compact package-qualified name for messages, e.g.
// "policy.(*HEEB).score".
func (f *Func) Name() string {
	recv := f.Obj.Signature().Recv()
	pkg := f.Pkg.Types.Name()
	if recv == nil {
		return pkg + "." + f.Obj.Name()
	}
	t := recv.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		ptr = "*"
	}
	name := "?"
	if n, ok := types.Unalias(t).(*types.Named); ok {
		name = n.Obj().Name()
	}
	if ptr != "" {
		return pkg + ".(" + ptr + name + ")." + f.Obj.Name()
	}
	return pkg + "." + name + "." + f.Obj.Name()
}

// Call is one call site with its statically resolved target.
type Call struct {
	Site *ast.CallExpr
	// Callee is the target when it is a module function with a body; nil
	// for dynamic, interface, builtin and external calls.
	Callee *Func
	// StaticObj is the resolved target object even when it is external
	// (stdlib) or body-less; nil only for truly dynamic calls.
	StaticObj *types.Func
}

// NewProgram indexes pkgs (typically loader.SourcePackages()) into a
// Program: function index, call graph, SCC order.
func NewProgram(fset *token.FileSet, pkgs []*load.Package) *Program {
	p := &Program{
		Fset:  fset,
		Pkgs:  pkgs,
		funcs: map[*types.Func]*Func{},
		byPkg: map[string][]*Func{},
		facts: map[string]*FactStore{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				f := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[obj] = f
				p.byPkg[pkg.Path] = append(p.byPkg[pkg.Path], f)
				p.order = append(p.order, f)
			}
		}
	}
	for _, f := range p.order {
		f.Calls = p.collectCalls(f)
	}
	p.buildSCCs()
	return p
}

// collectCalls resolves every call site in f's body (function literals
// included) in source order.
func (p *Program) collectCalls(f *Func) []Call {
	var calls []Call
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := CalleeObj(f.Pkg.Info, call)
		if obj == nil {
			return true
		}
		calls = append(calls, Call{Site: call, Callee: p.funcs[obj], StaticObj: obj})
		return true
	})
	return calls
}

// CalleeObj statically resolves a call expression to its target function:
// package functions, qualified functions, and methods on concrete receiver
// types. Interface method calls, function-value calls, builtins and type
// conversions resolve to nil.
func CalleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if s := info.Selections[fun]; s != nil {
			if s.Kind() != types.MethodVal {
				return nil
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil
			}
			return fn
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// FuncsOf returns the functions of one package in source order.
func (p *Program) FuncsOf(pkgPath string) []*Func { return p.byPkg[pkgPath] }

// Funcs returns every function in deterministic program order.
func (p *Program) Funcs() []*Func { return p.order }

// buildSCCs runs Tarjan's algorithm over the static call graph. Tarjan
// emits each strongly connected component only after every component it
// can reach, so p.sccs is already in bottom-up (callee-first) order — the
// order the fixed-point solver wants.
func (p *Program) buildSCCs() {
	index := make(map[*Func]int, len(p.order))
	low := make(map[*Func]int, len(p.order))
	onstack := make(map[*Func]bool, len(p.order))
	var stack []*Func
	next := 0
	var strong func(v *Func)
	strong = func(v *Func) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onstack[v] = true
		for _, c := range v.Calls {
			w := c.Callee
			if w == nil {
				continue
			}
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onstack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onstack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			p.sccs = append(p.sccs, scc)
		}
	}
	for _, f := range p.order {
		if _, seen := index[f]; !seen {
			strong(f)
		}
	}
}

// FactStore holds the per-function summaries of one analysis.
type FactStore struct {
	m map[*types.Func]interface{}
}

// Get returns the summary of obj, or nil when obj is external, dynamic or
// not yet summarized. Analyzers must treat nil as "no information" and pick
// their conservative default.
func (s *FactStore) Get(obj *types.Func) interface{} {
	if obj == nil {
		return nil
	}
	return s.m[obj]
}

// TransferFunc computes one function's summary from its body and its
// callees' current summaries (read through store.Get). It must be monotone
// and deterministic: the solver re-runs it until the summary stabilizes.
type TransferFunc func(f *Func, store *FactStore) interface{}

// Facts returns the memoized fact store of the named analysis, computing it
// on first use: functions are visited bottom-up over the call graph's SCCs,
// and each SCC is iterated to a fixed point (eq compares summaries). Within
// an SCC the iteration is capped — a non-monotone transfer terminates
// rather than looping, at the cost of a possibly unstable summary.
//
// Transfer functions must not call Facts recursively (the store lock is
// held during the solve); layer analyses by calling Facts for the earlier
// analysis first and closing over its store.
func (p *Program) Facts(name string, transfer TransferFunc, eq func(a, b interface{}) bool) *FactStore {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.facts[name]; ok {
		return s
	}
	s := &FactStore{m: map[*types.Func]interface{}{}}
	for _, scc := range p.sccs {
		for round := 0; round <= 2*len(scc)+4; round++ {
			changed := false
			for _, f := range scc {
				nv := transfer(f, s)
				if !eq(nv, s.m[f.Obj]) {
					s.m[f.Obj] = nv
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	p.facts[name] = s
	return s
}

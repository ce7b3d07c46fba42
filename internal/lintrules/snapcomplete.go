package lintrules

import (
	"go/types"

	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/dataflow"
)

// Snapcomplete proves serialization completeness for every type that
// participates in the checkpoint protocol: a struct with a snapshot-encoder
// method (SnapshotState / Checkpoint / MarshalBinary / State) and a
// matching decoder (RestoreState / Restore / UnmarshalBinary) must keep its
// persistent state and its snapshot in agreement. The canonical way the
// byte-identical-replay guarantee rots is someone adding a struct field,
// wiring it into normal operation, and forgetting the snapshot write or the
// restore read — a bug the differential tests only catch if the field
// happens to be exercised on the tested path. This analyzer catches it at
// lint time, before the state even exists.
//
// For each checked type the analyzer computes, over the whole program:
//
//   - the persistent set: fields written or mutated by operational code —
//     any function except the codec pair itself, the type's constructors
//     and Reset methods, and helpers reachable only from the codec pair
//     (a restore-only helper's writes are decode plumbing, not operation);
//   - the encoded set: the encoder's transitive field reads;
//   - the decoder's touched set: its transitive reads, writes and mutates
//     (a decoder may legitimately read a field only to validate identity).
//
// It reports, at the field declaration: persistent fields never captured by
// the encoder, encoded fields the decoder never touches, and fields the
// decoder restores that the encoder never captured. Derived or rebuildable
// fields (memo tables, scratch buffers, rebuilt indexes) are the expected
// //lint:ignore snapcomplete story — the directive on the field line must
// say how the field is rebuilt.
const snapcompleteName = "snapcomplete"

var Snapcomplete = &analysis.Analyzer{
	Name: snapcompleteName,
	Doc:  "persistent fields must be captured by the snapshot encoder and restored by its decoder",
	Run:  runSnapcomplete,
}

// snapEncoderNames and snapDecoderNames pair a type's codec methods, in
// priority order (a type with both Checkpoint and MarshalBinary is checked
// against Checkpoint).
var snapEncoderNames = []string{"SnapshotState", "Checkpoint", "MarshalBinary", "State"}
var snapDecoderNames = []string{"RestoreState", "Restore", "UnmarshalBinary"}

// snapObsExempt reports whether fld is an observability handle (telemetry /
// flightrec types): out-of-band instrumentation that is never replay state.
func snapObsExempt(fld *types.Var) bool {
	t := types.Unalias(fld.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	name := n.Obj().Pkg().Name()
	return name == "telemetry" || name == "flightrec"
}

// snapFuncField reports whether fld holds a function value (directly or
// behind a pointer). Function values have no serialized form — they are
// wiring, re-established by the constructor — so a codec can never capture
// them and snapcomplete must not demand it.
func snapFuncField(fld *types.Var) bool {
	t := fld.Type().Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	_, ok := t.(*types.Signature)
	return ok
}

// recvNamed resolves a method's receiver to its named type; nil for
// package-level functions.
func recvNamed(f *dataflow.Func) *types.Named {
	recv := f.Obj.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isTypeConstructor reports whether fn is a package-level function returning
// T or *T — construction-time writes are initialization, not operation.
func isTypeConstructor(f *dataflow.Func, named *types.Named) bool {
	if f.Obj.Signature().Recv() != nil {
		return false
	}
	results := f.Obj.Signature().Results()
	for i := 0; i < results.Len(); i++ {
		t := types.Unalias(results.At(i).Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok && n.Obj() == named.Obj() {
			return true
		}
	}
	return false
}

// structFieldsOf returns the declared fields of named's underlying struct.
func structFieldsOf(named *types.Named) []*types.Var {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fields := make([]*types.Var, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields = append(fields, st.Field(i))
	}
	return fields
}

// codecHelpersOf returns the codec pair plus every function reachable only
// through it: a helper whose every caller chain passes through the encoder
// or decoder is codec plumbing, and its writes must not count as operation.
// Shared helpers (called from operational code too, like the engine's admit)
// stay operational.
func codecHelpersOf(prog *dataflow.Program, enc, dec *dataflow.Func) map[*dataflow.Func]bool {
	callers := map[*dataflow.Func][]*dataflow.Func{}
	for _, f := range prog.Funcs() {
		for _, c := range f.Calls {
			if c.Callee != nil && c.Callee != f {
				callers[c.Callee] = append(callers[c.Callee], f)
			}
		}
	}
	helper := map[*dataflow.Func]bool{enc: true, dec: true}
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs() {
			if helper[f] || len(callers[f]) == 0 {
				continue
			}
			all := true
			for _, caller := range callers[f] {
				if !helper[caller] {
					all = false
					break
				}
			}
			if all {
				helper[f] = true
				changed = true
			}
		}
	}
	return helper
}

func runSnapcomplete(pass *analysis.Pass) (interface{}, error) {
	prog, _ := pass.Facts.(*dataflow.Program)
	if prog == nil {
		return nil, nil // interprocedural-only: nothing without whole-program context
	}
	store := dataflow.FieldFacts(prog)

	// Index this package's methods by receiver type, preserving source order
	// of first appearance for deterministic reporting.
	var typesInOrder []*types.Named
	methods := map[*types.Named]map[string]*dataflow.Func{}
	for _, f := range prog.FuncsOf(pass.Pkg.Path()) {
		named := recvNamed(f)
		if named == nil || named.Obj().Pkg() != pass.Pkg {
			continue
		}
		if methods[named] == nil {
			methods[named] = map[string]*dataflow.Func{}
			typesInOrder = append(typesInOrder, named)
		}
		methods[named][f.Obj.Name()] = f
	}

	for _, named := range typesInOrder {
		var enc, dec *dataflow.Func
		for _, n := range snapEncoderNames {
			if m := methods[named][n]; m != nil {
				enc = m
				break
			}
		}
		for _, n := range snapDecoderNames {
			if m := methods[named][n]; m != nil {
				dec = m
				break
			}
		}
		if enc == nil || dec == nil {
			continue
		}
		checkSnapshotPair(pass, prog, store, named, enc, dec)
	}
	return nil, nil
}

func checkSnapshotPair(pass *analysis.Pass, prog *dataflow.Program, store *dataflow.FactStore, named *types.Named, enc, dec *dataflow.Func) {
	fields := structFieldsOf(named)
	if len(fields) == 0 {
		return
	}
	encSum := dataflow.FieldSummaryOf(store, enc.Obj)
	decSum := dataflow.FieldSummaryOf(store, dec.Obj)
	helpers := codecHelpersOf(prog, enc, dec)

	// witness[fld] is the first operational writer in program order.
	witness := map[*types.Var]*dataflow.Func{}
	for _, f := range prog.Funcs() {
		if helpers[f] || isTypeConstructor(f, named) {
			continue
		}
		if n := recvNamed(f); n != nil && n.Obj() == named.Obj() && f.Obj.Name() == "Reset" {
			continue
		}
		d := f.DirectFieldAccesses()
		for _, fld := range fields {
			if witness[fld] == nil && (d.Writes[fld] || d.Mutates[fld]) {
				witness[fld] = f
			}
		}
	}

	tName := named.Obj().Name()
	for _, fld := range fields {
		if snapObsExempt(fld) || snapFuncField(fld) {
			continue
		}
		encoded := encSum != nil && encSum.Reads[fld]
		touched := decSum.Touches(fld)
		restored := decSum.WritesOrMutates(fld)
		switch {
		case witness[fld] != nil && !encoded:
			pass.Reportf(fld.Pos(),
				"persistent field %s of %s is written by %s but never captured by %s: a checkpoint drops it and replay diverges; encode it, or //lint:ignore snapcomplete with the story for how it is rebuilt on restore",
				fld.Name(), tName, witness[fld].Name(), enc.Name())
		case encoded && !touched:
			pass.Reportf(fld.Pos(),
				"field %s of %s is captured by %s but never touched by %s: the snapshot carries bytes the restore ignores; restore the field or drop it from the encoder",
				fld.Name(), tName, enc.Name(), dec.Name())
		case restored && !encoded:
			pass.Reportf(fld.Pos(),
				"field %s of %s is restored by %s but never captured by %s: the decode fills it from data the snapshot never wrote",
				fld.Name(), tName, dec.Name(), enc.Name())
		}
	}
}

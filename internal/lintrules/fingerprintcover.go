package lintrules

import (
	"go/types"
	"strings"

	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/dataflow"
)

// Fingerprintcover closes a state-integrity gap: a checkpoint is
// only safe to restore under the configuration it was taken with, and the
// guard is the config fingerprint compared on restore (ErrConfigMismatch).
// The failure mode is a new Config knob that changes runtime decisions —
// cache budget split, window, seed derivation — but never gets folded into
// the fingerprint, so a checkpoint taken under one value silently restores
// under another and replay diverges instead of failing fast.
//
// For every package in scope that declares a Config struct, the analyzer
// requires a fingerprint function (a function or method named fingerprint /
// Fingerprint) and computes:
//
//   - the covered set: Config fields transitively read by the fingerprint
//     function — helpers included, so a fingerprint that delegates hashing
//     still covers what its helpers read;
//   - the relevant set: Config fields read anywhere else in the program
//     (any function outside the fingerprint's exclusive helper closure) —
//     if nothing reads a field, it cannot steer a decision.
//
// Relevant fields not covered are reported at the field declaration.
// Observability handles (telemetry / flightrec types) are exempt; knobs
// that genuinely cannot affect replay — queue capacities, file paths,
// observability toggles — carry a //lint:ignore fingerprintcover with the
// reason.
const fingerprintcoverName = "fingerprintcover"

var Fingerprintcover = &analysis.Analyzer{
	Name: fingerprintcoverName,
	Doc:  "every decision-relevant Config field must be folded into the config fingerprint",
	Run:  runFingerprintcover,
}

func runFingerprintcover(pass *analysis.Pass) (interface{}, error) {
	prog, _ := pass.Facts.(*dataflow.Program)
	if prog == nil {
		return nil, nil
	}
	tn, ok := pass.Pkg.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named, ok := types.Unalias(tn.Type()).(*types.Named)
	if !ok {
		return nil, nil
	}
	fields := structFieldsOf(named)
	if len(fields) == 0 {
		return nil, nil
	}

	var fps []*dataflow.Func
	for _, f := range prog.FuncsOf(pass.Pkg.Path()) {
		if strings.EqualFold(f.Obj.Name(), "fingerprint") {
			fps = append(fps, f)
		}
	}
	if len(fps) == 0 {
		pass.Reportf(tn.Pos(),
			"package %s declares a Config but no fingerprint function: a checkpoint cannot detect a config mismatch on restore (ErrConfigMismatch can never fire)",
			pass.Pkg.Name())
		return nil, nil
	}

	store := dataflow.FieldFacts(prog)
	covered := map[*types.Var]bool{}
	for _, fp := range fps {
		if sum := dataflow.FieldSummaryOf(store, fp.Obj); sum != nil {
			for fld := range sum.Reads {
				covered[fld] = true
			}
		}
	}

	// Functions reachable only through the fingerprint are part of the
	// fingerprint computation, not the runtime; their reads must not make a
	// field relevant.
	helpers := onlyReachedFrom(prog, fps)

	witness := map[*types.Var]*dataflow.Func{}
	for _, f := range prog.Funcs() {
		if helpers[f] {
			continue
		}
		d := f.DirectFieldReads()
		for _, fld := range fields {
			if witness[fld] == nil && d.Reads[fld] {
				witness[fld] = f
			}
		}
	}

	for _, fld := range fields {
		if covered[fld] || observabilityHandle(fld) {
			continue
		}
		if w := witness[fld]; w != nil {
			pass.Reportf(fld.Pos(),
				"config field %s is read on the runtime path (%s) but never folded into %s: a checkpoint taken under a different %s restores cleanly instead of failing with ErrConfigMismatch; fold it in, or //lint:ignore fingerprintcover with why it cannot affect replay",
				fld.Name(), w.Name(), fps[0].Name(), fld.Name())
		}
	}
	return nil, nil
}

// observabilityHandle reports whether fld is an observability handle
// (telemetry / flightrec types): out-of-band instrumentation that never
// steers a decision.
func observabilityHandle(fld *types.Var) bool {
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

// onlyReachedFrom returns roots plus every function whose every caller chain
// passes through them: such a helper is part of the roots' computation.
// Shared helpers (called from elsewhere too) are left out.
func onlyReachedFrom(prog *dataflow.Program, roots []*dataflow.Func) map[*dataflow.Func]bool {
	callers := map[*dataflow.Func][]*dataflow.Func{}
	for _, f := range prog.Funcs() {
		for _, c := range f.Calls {
			if c.Callee != nil && c.Callee != f {
				callers[c.Callee] = append(callers[c.Callee], f)
			}
		}
	}
	helper := map[*dataflow.Func]bool{}
	for _, r := range roots {
		helper[r] = true
	}
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

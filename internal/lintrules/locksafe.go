package lintrules

import (
	"go/ast"
	"go/types"

	"stochstream/internal/lintrules/analysis"
)

// telemetryPath is the package whose handle types Locksafe guards.
const telemetryPath = "stochstream/internal/telemetry"

// telemetryHandleTypes are the types that must be obtained through their
// constructors (NewRegistry, Registry.Counter/Gauge/Histogram,
// NewHistogram, NewRing): literal or zero-value construction
// bypasses registration, so the metric silently never exports.
var telemetryHandleTypes = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Registry":  true,
	"Ring":      true,
}

// Locksafe flags out-of-band construction of telemetry handle types: a
// composite literal or a zero-value declaration outside the telemetry
// package. Copies of lock- or atomic-bearing values (a copied handle, a
// forked mutex) are go vet's copylocks check, which flags every copy shape:
// assignments, by-value parameters and receivers, call arguments, range
// values and returns, for sync types and typed atomics alike.
var Locksafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "flag literal or zero-value construction of telemetry handles",
	Run:  runLocksafe,
}

func runLocksafe(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == telemetryPath {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkTelemetryLiteral(pass, n)
			case *ast.ValueSpec:
				checkTelemetryZeroValue(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkTelemetryLiteral flags composite literals of telemetry handle types.
func checkTelemetryLiteral(pass *analysis.Pass, cl *ast.CompositeLit) {
	if name, ok := telemetryHandle(pass.TypesInfo.Types[cl].Type); ok {
		pass.Reportf(cl.Pos(), "telemetry.%s constructed by literal: handles must come from the registry constructors (Registry.%s / New%s) or the metric never registers for export", name, name, name)
	}
}

// checkTelemetryZeroValue flags `var x telemetry.Counter`-style zero-value
// declarations.
func checkTelemetryZeroValue(pass *analysis.Pass, vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	if name, ok := telemetryHandle(pass.TypesInfo.Types[vs.Type].Type); ok {
		pass.Reportf(vs.Type.Pos(), "zero-value telemetry.%s declared: handles must come from the registry constructors (Registry.%s / New%s) or the metric never registers for export", name, name, name)
	}
}

// telemetryHandle reports whether t is a telemetry handle value type (not a
// pointer to one — pointers are how handles circulate).
func telemetryHandle(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != telemetryPath || !telemetryHandleTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

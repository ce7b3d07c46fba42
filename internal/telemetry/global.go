package telemetry

import (
	"sync/atomic"

	"stochstream/internal/mincostflow"
)

// global is the registry EnableGlobal installed; nil means none.
var global atomic.Pointer[Registry]

// EnableGlobal turns on process-wide telemetry: every operator the
// simulator's driver (engine.Run) builds reports into the default registry
// from then on — the engine_* families, and the policy_* families and the
// decision trace of its wrapped policy — and the min-cost-flow solver
// counters appear as gauges. cmd/repro -metrics and the examples call this;
// library embedders who want per-instance registries should use
// engine.Config.Telemetry instead.
func EnableGlobal() *Registry {
	reg := Default()
	global.Store(reg)
	RegisterMinCostFlowStats(reg)
	return reg
}

// DisableGlobal removes the registry EnableGlobal installed. Already-collected
// metrics stay readable.
func DisableGlobal() {
	global.Store(nil)
}

// Global returns the registry EnableGlobal installed, or nil when process-wide
// telemetry is off.
func Global() *Registry { return global.Load() }

// RegisterMinCostFlowStats surfaces the solver's package-level counters
// (solves, augmenting paths, Dijkstra and Bellman–Ford runs) as
// snapshot-time gauges on reg.
func RegisterMinCostFlowStats(reg *Registry) {
	stat := func(sel func(mincostflow.Stats) int64) func() float64 {
		return func() float64 { return float64(sel(mincostflow.ReadStats())) }
	}
	reg.GaugeFunc("mincostflow_solves_total", stat(func(s mincostflow.Stats) int64 { return s.Solves }))
	reg.GaugeFunc("mincostflow_augmenting_paths_total", stat(func(s mincostflow.Stats) int64 { return s.Augmentations }))
	reg.GaugeFunc("mincostflow_dijkstra_runs_total", stat(func(s mincostflow.Stats) int64 { return s.DijkstraRuns }))
	reg.GaugeFunc("mincostflow_bellman_ford_runs_total", stat(func(s mincostflow.Stats) int64 { return s.BellmanFordRuns }))
}

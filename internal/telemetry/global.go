package telemetry

import (
	"stochstream/internal/join"
	"stochstream/internal/mincostflow"
)

// EnableGlobal turns on process-wide telemetry: it installs a join.Run
// observer feeding the default registry (wrapping every policy with
// InstrumentedPolicy), and surfaces the min-cost-flow solver counters as
// gauges. cmd/repro -metrics and the examples call this; library
// embedders who want per-instance registries should use engine.Config.
// Telemetry instead.
func EnableGlobal() *Registry {
	reg := Default()
	join.SetObserver(NewJoinObserver(reg))
	RegisterMinCostFlowStats(reg)
	return reg
}

// DisableGlobal removes the process-wide hooks installed by EnableGlobal.
// Already-collected metrics stay readable.
func DisableGlobal() {
	join.SetObserver(nil)
}

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

package mincostflow

import "sync/atomic"

// Stats aggregates solver work counters across all graphs in the process:
// how many solves ran, how many augmenting paths they pushed, and how many
// Dijkstra / Bellman–Ford passes they needed. The telemetry layer surfaces
// these as gauges so FlowExpect- and OPT-offline-heavy runs can attribute
// their time.
type Stats struct {
	Solves          int64 // Graph.MinCostFlow calls
	Augmentations   int64 // shortest augmenting paths pushed
	DijkstraRuns    int64 // Dijkstra passes over reduced costs
	BellmanFordRuns int64 // Bellman–Ford initial-potential passes
}

// Counters are package-level so a solve buried under policy → core call
// chains still gets counted; solvers accumulate locally and publish once per
// solve, so the hot loops stay atomic-free.
var statSolves, statAugmentations, statDijkstra, statBellmanFord atomic.Int64

// ReadStats returns the current process-wide counters.
func ReadStats() Stats {
	return Stats{
		Solves:          statSolves.Load(),
		Augmentations:   statAugmentations.Load(),
		DijkstraRuns:    statDijkstra.Load(),
		BellmanFordRuns: statBellmanFord.Load(),
	}
}

package mincostflow

import "testing"

// The stats counters are process-wide, so this test reads them before and
// after its one solve (Go runs same-package tests sequentially by default).
func TestStatsCountSolverWork(t *testing.T) {
	before := ReadStats()

	// One SSP solve: two unit paths from 0 to 2.
	g := New(3)
	g.AddArc(0, 1, 2, 1)
	g.AddArc(1, 2, 2, 1)
	g.AddArc(0, 2, 1, 5)
	if _, err := g.MinCostFlow(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	s := Stats{
		Solves:        after.Solves - before.Solves,
		Augmentations: after.Augmentations - before.Augmentations,
		DijkstraRuns:  after.DijkstraRuns - before.DijkstraRuns,
	}
	if s.Solves != 1 {
		t.Fatalf("solves = %d, want 1", s.Solves)
	}
	if s.Augmentations < 2 {
		t.Fatalf("augmentations = %d, want >= 2 (two distinct paths)", s.Augmentations)
	}
	if s.DijkstraRuns < s.Augmentations {
		t.Fatalf("dijkstra runs %d < augmentations %d", s.DijkstraRuns, s.Augmentations)
	}
}

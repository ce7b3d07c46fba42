package mincostflow

import (
	"math"
	"testing"
	"testing/quick"

	"stochstream/internal/stats"
)

func TestSingleArc(t *testing.T) {
	g := New(2)
	id := g.AddArc(0, 1, 3, 2.5)
	res, err := g.MinCostFlow(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || math.Abs(res.Cost-5) > 1e-12 {
		t.Fatalf("res = %+v, want flow 2 cost 5", res)
	}
	if g.Flow(id) != 2 {
		t.Fatalf("arc flow = %d, want 2", g.Flow(id))
	}
}

func TestTargetExceedsCapacity(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 3, 1)
	res, err := g.MinCostFlow(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 3 {
		t.Fatalf("flow = %d, want 3 (max)", res.Flow)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1, 1)
	if _, err := g.MinCostFlow(0, 2, 1); err != ErrDisconnected {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestZeroTarget(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 1, 1)
	res, err := g.MinCostFlow(0, 1, 0)
	if err != nil || res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("res = %+v err = %v", res, err)
	}
}

func TestPrefersCheaperPath(t *testing.T) {
	//        1 --(cost 1)--> 3
	//  0 --<                  >-- but only via distinct middle nodes
	//        2 --(cost 5)--> 3
	g := New(4)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(0, 2, 1, 0)
	cheap := g.AddArc(1, 3, 1, 1)
	dear := g.AddArc(2, 3, 1, 5)
	res, err := g.MinCostFlow(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 1 || g.Flow(cheap) != 1 || g.Flow(dear) != 0 {
		t.Fatalf("should use the cheap path: cost %v cheap %d dear %d", res.Cost, g.Flow(cheap), g.Flow(dear))
	}
	// Second unit has to take the expensive path.
	res2, err := g.MinCostFlow(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost != 5 {
		t.Fatalf("second unit cost = %v, want 5", res2.Cost)
	}
}

func TestNegativeCosts(t *testing.T) {
	// A benefit-style graph: all costs negative, the solver must still find
	// the minimum (most negative) total.
	g := New(4)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(0, 2, 1, 0)
	g.AddArc(1, 3, 1, -3)
	g.AddArc(2, 3, 1, -1)
	res, err := g.MinCostFlow(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || math.Abs(res.Cost-(-4)) > 1e-12 {
		t.Fatalf("res = %+v, want flow 2 cost -4", res)
	}
}

func TestReroutingThroughResidualArcs(t *testing.T) {
	// Classic instance where the second augmentation must cancel flow on the
	// first path to be optimal.
	//
	//	0 -> 1 (cap 1, cost 1)     0 -> 2 (cap 1, cost 4)
	//	1 -> 2 (cap 1, cost 1)     1 -> 3 (cap 1, cost 5)
	//	2 -> 3 (cap 1, cost 1)
	//
	// One unit: 0-1-2-3 at cost 3. Two units: 0-1-3 (6) + 0-2-3 (5) = 11,
	// found only by pushing back along 1->2 or by SSP's potentials.
	g := New(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(0, 2, 1, 4)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(1, 3, 1, 5)
	g.AddArc(2, 3, 1, 1)
	res, err := g.MinCostFlow(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || math.Abs(res.Cost-11) > 1e-12 {
		t.Fatalf("res = %+v, want flow 2 cost 11", res)
	}
}

func TestBellmanFordFallbackOnCyclicGraph(t *testing.T) {
	// A graph with a (positive-cost) cycle exercises the non-DAG
	// initialization path.
	g := New(4)
	g.AddArc(0, 1, 2, 1)
	g.AddArc(1, 2, 2, 1)
	g.AddArc(2, 1, 2, 1) // cycle 1<->2
	g.AddArc(2, 3, 2, 1)
	res, err := g.MinCostFlow(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || math.Abs(res.Cost-6) > 1e-12 {
		t.Fatalf("res = %+v, want flow 2 cost 6", res)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	g := New(2)
	mustPanic(t, "negative capacity", func() { g.AddArc(0, 1, -1, 0) })
	mustPanic(t, "bad endpoint", func() { g.AddArc(0, 5, 1, 0) })
	mustPanic(t, "zero nodes", func() { New(0) })
	if _, err := g.MinCostFlow(0, 0, 1); err == nil {
		t.Fatal("source == sink should error")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

// assignmentBrute solves the n×n assignment problem by permutation
// enumeration; the flow solver must match it exactly.
func assignmentBrute(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	used := make([]bool, n)
	best := math.Inf(1)
	var rec func(i int, acc float64)
	// No branch-and-bound pruning: costs may be negative, so a partial sum
	// above the incumbent can still lead to a better completion.
	rec = func(i int, acc float64) {
		if i == n {
			if acc < best {
				best = acc
			}
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, acc+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func solveAssignment(cost [][]float64) float64 {
	n := len(cost)
	// Nodes: 0 = source, 1..n = workers, n+1..2n = jobs, 2n+1 = sink.
	g := New(2*n + 2)
	src, snk := 0, 2*n+1
	for i := 0; i < n; i++ {
		g.AddArc(src, 1+i, 1, 0)
		g.AddArc(1+n+i, snk, 1, 0)
		for j := 0; j < n; j++ {
			g.AddArc(1+i, 1+n+j, 1, cost[i][j])
		}
	}
	res, err := g.MinCostFlow(src, snk, n)
	if err != nil || res.Flow != n {
		panic("assignment infeasible")
	}
	return res.Cost
}

func TestAssignmentMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				// Mix of positive and negative costs.
				cost[i][j] = math.Round((rng.Float64()*20-10)*4) / 4
			}
		}
		want := assignmentBrute(cost)
		got := solveAssignment(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): flow %v != brute %v", trial, n, got, want)
		}
	}
}

// Property: cost is monotone in flow increments on random layered DAGs —
// each successive augmentation is at least as expensive per unit as the
// previous (convexity of min-cost flow).
func TestQuickSuccessiveAugmentationCostsNondecreasing(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		layers := 3
		width := 2 + rng.IntN(3)
		n := 2 + layers*width
		g := New(n)
		src, snk := 0, n-1
		node := func(l, i int) int { return 1 + l*width + i }
		for i := 0; i < width; i++ {
			g.AddArc(src, node(0, i), 1, 0)
			g.AddArc(node(layers-1, i), snk, 1, 0)
		}
		for l := 0; l+1 < layers; l++ {
			for i := 0; i < width; i++ {
				for j := 0; j < width; j++ {
					g.AddArc(node(l, i), node(l+1, j), 1, rng.Float64()*10-5)
				}
			}
		}
		prev := math.Inf(-1)
		for u := 0; u < width; u++ {
			res, err := g.MinCostFlow(src, snk, 1)
			if err != nil {
				break
			}
			if res.Cost < prev-1e-9 {
				return false
			}
			prev = res.Cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Incremental (one unit at a time) and batch solves must agree in total cost.
func TestIncrementalMatchesBatch(t *testing.T) {
	build := func() *Graph {
		g := New(6)
		g.AddArc(0, 1, 2, 1)
		g.AddArc(0, 2, 2, 2)
		g.AddArc(1, 3, 1, -4)
		g.AddArc(1, 4, 2, 3)
		g.AddArc(2, 3, 1, 0)
		g.AddArc(2, 4, 1, -1)
		g.AddArc(3, 5, 2, 0)
		g.AddArc(4, 5, 2, 1)
		return g
	}
	batch := build()
	resBatch, err := batch.MinCostFlow(0, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	inc := build()
	var total float64
	var units int
	for i := 0; i < 3; i++ {
		r, err := inc.MinCostFlow(0, 5, 1)
		if err != nil {
			break
		}
		total += r.Cost
		units += r.Flow
	}
	if units != resBatch.Flow || math.Abs(total-resBatch.Cost) > 1e-9 {
		t.Fatalf("incremental (%d, %v) != batch (%d, %v)", units, total, resBatch.Flow, resBatch.Cost)
	}
}

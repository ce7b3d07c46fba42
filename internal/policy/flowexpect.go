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
	dec, err := core.FlowExpectStepCached(cs, p.bindDecision(st), len(cands)-n, p.Lookahead, p.cfg.Window)
	if err != nil {
		panic(fmt.Sprintf("policy: FlowExpect step failed: %v", err))
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

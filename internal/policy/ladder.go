package policy

import (
	"errors"
	"fmt"
	"strings"

	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/stats"
)

// Lfixed is the bottom rung of the degradation ladder: a model-free,
// allocation-light, panic-free policy that evicts the oldest candidates
// first (FIFO over arrival IDs). It consults no model, no solver and no
// randomness, so it cannot fail — which is exactly what the last rung of a
// fault-tolerant operator needs. Under sliding-window semantics oldest-first
// coincides with evicting the tuples closest to expiry.
type Lfixed struct {
	scores []float64
}

// Name implements join.Policy.
func (p *Lfixed) Name() string { return "LFIXED" }

// Reset implements join.Policy.
func (p *Lfixed) Reset(join.Config, *stats.RNG) {}

// Evict implements join.Policy: the n smallest arrival IDs are discarded.
func (p *Lfixed) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	if cap(p.scores) < len(cands) {
		p.scores = make([]float64, len(cands))
	}
	scores := p.scores[:len(cands)]
	for i, c := range cands {
		scores[i] = float64(c.ID)
	}
	return evictLowest(scores, cands, n, nil)
}

// Downgrade describes one ladder fallback: the decision step, the rung that
// failed, the rung that took over, and why. The engine's telemetry wiring
// turns these into per-rung counters and trace records.
type Downgrade struct {
	Step int
	// From is the name of the rung that failed; To the rung tried next ("" on
	// the final built-in last resort).
	From, To string
	// Err is the taxonomy error the failed rung reported.
	Err error
}

// Ladder chains policies from most sophisticated to most robust and degrades
// per decision: each replacement decision walks the rungs in order and uses
// the first one that produces a valid eviction set. Rungs implementing
// Fallible fail softly via TryEvict; other rungs are guarded with a panic
// recovery so a buggy or model-poisoned policy downgrades one decision
// instead of crashing the operator. If every rung fails, a built-in
// oldest-first eviction (the Lfixed rule) decides — the ladder never fails
// and never panics.
//
// The canonical production ladder is FlowExpect → HEEB → Lfixed
// (NewDefaultLadder); any rung list works. Determinism: each rung gets its
// own Split of the reset RNG, and the walk order is fixed, so a run with a
// given fault pattern replays identically.
type Ladder struct {
	// Rungs are tried in order; the slice is not copied.
	Rungs []join.Policy
	// OnDowngrade, when non-nil, is called for every rung failure, in
	// decision order. Used by the engine to feed telemetry counters and the
	// downgrade trace.
	OnDowngrade func(Downgrade)
	// Flight, when non-nil, records every rung attempt as a PhaseRung child
	// span of the current step — successful attempts end clean, failed ones
	// carry the taxonomy error class — so a downgrade is attributable to the
	// exact rung (and, via PhaseSolve children, the exact solver event)
	// inside the exact step. The engine wires this from Config.Flight.
	Flight *flightrec.Recorder

	fallbacks []uint64
	lastRung  int
	lfixed    Lfixed //lint:ignore snapcomplete terminal rung, reset from config; it carries no cross-decision state of its own
	seen      []bool //lint:ignore snapcomplete per-decision validation scratch, rebuilt by checkEviction each call
}

// NewDefaultLadder returns the canonical FlowExpect → HEEB → Lfixed ladder.
// lookahead and solverBudget configure the FlowExpect rung; heebOpts the HEEB
// rung.
func NewDefaultLadder(lookahead int, solverBudget int64, heebOpts HEEBOptions) *Ladder {
	return &Ladder{Rungs: []join.Policy{
		&FlowExpect{Lookahead: lookahead, SolverBudget: solverBudget},
		NewHEEB(heebOpts),
		&Lfixed{},
	}}
}

// Name implements join.Policy.
func (p *Ladder) Name() string {
	names := make([]string, len(p.Rungs))
	for i, r := range p.Rungs {
		names[i] = r.Name()
	}
	return "LADDER(" + strings.Join(names, "→") + ")"
}

// Reset implements join.Policy. Every rung receives an independent Split of
// the run RNG, so a downgrade on one decision never perturbs another rung's
// random stream.
func (p *Ladder) Reset(cfg join.Config, rng *stats.RNG) {
	p.fallbacks = make([]uint64, len(p.Rungs)+1)
	p.lastRung = 0
	for _, r := range p.Rungs {
		var child *stats.RNG
		if rng != nil {
			child = rng.Split()
		}
		r.Reset(cfg, child)
	}
	p.lfixed.Reset(cfg, nil)
}

// ObserveArrivals implements join.ArrivalObserver for the rungs that do: a
// PROB or LIFE rung counts every arrival, whichever rung decides.
func (p *Ladder) ObserveArrivals(r, s int) {
	for _, rung := range p.Rungs {
		if o, ok := rung.(join.ArrivalObserver); ok {
			o.ObserveArrivals(r, s)
		}
	}
}

// Evict implements join.Policy. It always returns a valid eviction set.
func (p *Ladder) Evict(st *join.State, cands []join.Tuple, n int) []int {
	for i, rung := range p.Rungs {
		var sp flightrec.Active
		if p.Flight != nil {
			sp = p.Flight.BeginLabel(flightrec.PhaseRung, rung.Name())
		}
		evict, err := p.tryRung(rung, st, cands, n)
		if err == nil {
			p.seen, err = checkEviction(evict, len(cands), n, p.seen)
		}
		if err == nil {
			if p.Flight != nil {
				p.Flight.End(sp, len(cands), int64(n))
			}
			p.lastRung = i
			return evict
		}
		if p.Flight != nil {
			p.Flight.Fail(sp, len(cands), int64(n), flightErrClass(err))
		}
		p.fallbacks[i]++
		if p.OnDowngrade != nil {
			to := ""
			if i+1 < len(p.Rungs) {
				to = p.Rungs[i+1].Name()
			} else {
				to = p.lfixed.Name()
			}
			p.OnDowngrade(Downgrade{Step: st.Time, From: rung.Name(), To: to, Err: err})
		}
	}
	// Last resort: the built-in Lfixed rule, which cannot fail.
	p.fallbacks[len(p.Rungs)]++
	p.lastRung = len(p.Rungs)
	if p.Flight != nil {
		sp := p.Flight.BeginLabel(flightrec.PhaseRung, p.lfixed.Name())
		evict := p.lfixed.Evict(st, cands, n)
		p.Flight.End(sp, len(cands), int64(n))
		return evict
	}
	return p.lfixed.Evict(st, cands, n)
}

// flightErrClass maps rung-failure errors to static taxonomy strings for
// span records, so a failed attempt allocates nothing for its label.
func flightErrClass(err error) string {
	switch {
	case errors.Is(err, ErrModelDiverged):
		return "model-diverged"
	case errors.Is(err, ErrSolverBudget):
		return "solver-budget"
	case errors.Is(err, ErrSolverFailed):
		return "solver-failed"
	case errors.Is(err, ErrInvalidEviction):
		return "invalid-eviction"
	default:
		return "error"
	}
}

// tryRung runs one rung, converting panics from non-Fallible rungs into
// taxonomy errors so the ladder can keep degrading.
func (p *Ladder) tryRung(rung join.Policy, st *join.State, cands []join.Tuple, n int) (evict []int, err error) {
	if f, ok := rung.(Fallible); ok {
		return f.TryEvict(st, cands, n)
	}
	defer func() {
		if r := recover(); r != nil {
			evict, err = nil, fmt.Errorf("%w: rung %s panicked: %v", ErrSolverFailed, rung.Name(), r)
		}
	}()
	return rung.Evict(st, cands, n), nil
}

// ScoreCandidates implements telemetry.CandidateScorer by delegating to the
// rung that made the most recent decision, when it can explain itself.
func (p *Ladder) ScoreCandidates(st *join.State, cands []join.Tuple) []float64 {
	if p.lastRung < len(p.Rungs) {
		if s, ok := p.Rungs[p.lastRung].(interface {
			ScoreCandidates(*join.State, []join.Tuple) []float64
		}); ok {
			return s.ScoreCandidates(st, cands)
		}
	}
	return make([]float64, len(cands))
}

// FallbackCount returns how many decisions fell past rung i (the count of
// failures of rung i). Index len(Rungs) counts decisions that exhausted every
// rung and used the built-in last resort.
func (p *Ladder) FallbackCount(i int) uint64 {
	if i < 0 || i >= len(p.fallbacks) {
		return 0
	}
	return p.fallbacks[i]
}

// RungNames returns the rung names in ladder order, with the built-in last
// resort appended — index-aligned with FallbackCount.
func (p *Ladder) RungNames() []string {
	names := make([]string, 0, len(p.Rungs)+1)
	for _, r := range p.Rungs {
		names = append(names, r.Name())
	}
	return append(names, p.lfixed.Name())
}

package policy

import (
	"math"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// HEEBOptions configures the HEEB policy.
type HEEBOptions struct {
	// LifetimeEstimate is the a-priori mean cached-tuple lifetime α is
	// derived from. When zero, the cache size is used (the paper's choice for
	// WALK and REAL).
	LifetimeEstimate float64
	// Adaptive re-derives α from the observed mean tuple lifetime (the
	// adaptive-α technique the paper lists as future work).
	Adaptive bool
	// NoMemo disables the forecast window, its score memo and the tabulated
	// L-value table, restoring the seed implementation's re-derivation of
	// every forecast per candidate. Scores are bitwise-identical either way
	// (the window holds the exact values the direct path computes); the
	// switch exists so the differential harness and BenchmarkHEEBRun can
	// hold the window kernel against the original hot path.
	NoMemo bool
}

const (
	// adaptiveDecay is the lifetime tracker's smoothing factor.
	adaptiveDecay = 0.05
	// fallbackHorizon bounds the HEEB sum should L not decay.
	fallbackHorizon = 1000
)

// HEEB is the paper's heuristic of estimated expected benefit as a
// replacement policy: it scores every candidate with H_x and discards the
// lowest.
//
// There is one scoring path: the sum of Section 4.3 over the forecast window
// (core.BandJoinHCached). Section 4.4's ways of not re-summing it live in the
// window, chosen by what the stream models allow rather than by the caller:
// the window slides or re-offsets instead of being forecast again, and a
// score that depends on the candidate through one translation-invariant
// coordinate (Corollary 5 for trends, Theorem 5(2) for walks) is summed once
// per coordinate.
type HEEB struct {
	Opts HEEBOptions

	cfg     join.Config
	alpha   float64
	tracker *stats.LifetimeTracker
	// fc is the forecast window every candidate of a decision is scored
	// against, advanced at the head of each Evict; nil when Opts.NoMemo. It
	// is derived, so no snapshot carries it: a restore refills it.
	fc *core.ForecastCache
	// ltab caches Lexp's e^{−Δt/α} values for the current α; ltabAlpha
	// tracks which α the table was built for (adaptive runs re-derive α).
	// No snapshot carries them: ensureLTab re-derives the table on demand.
	ltab      core.LTable
	ltabAlpha float64
	// scoreBuf and victims are the reused per-decision score and answer
	// slices (join.Policy.Evict: the caller is done with an answer before it
	// asks again); Scores hands out scoreBuf. Every Evict overwrites both.
	scoreBuf []float64
	victims  []int
}

// NewHEEB returns a HEEB policy with the given options.
func NewHEEB(opts HEEBOptions) *HEEB { return &HEEB{Opts: opts} }

// Name implements join.Policy.
func (p *HEEB) Name() string { return "HEEB" }

// Reset implements join.Policy.
func (p *HEEB) Reset(cfg join.Config, _ *stats.RNG) {
	p.cfg = cfg
	est := p.Opts.LifetimeEstimate
	if est == 0 {
		est = float64(cfg.CacheSize)
	}
	p.alpha = stats.AlphaForLifetime(est)
	p.tracker = stats.NewLifetimeTracker(adaptiveDecay)
	p.fc = nil
	p.ltabAlpha = 0
	if !p.Opts.NoMemo {
		p.fc = core.NewForecastCache(cfg.Procs, [2]*process.History{})
		p.ensureLTab()
	}
}

// Forecasts returns the forecast window scores are read from, for tests and
// diagnostics that inspect it; nil when Opts.NoMemo.
func (p *HEEB) Forecasts() *core.ForecastCache { return p.fc }

// ensureLTab (re)tabulates the L table when α changed (Reset, or an adaptive
// re-derivation at the head of Evict). The window's score memo is keyed on
// the table it summed under, so a new table also empties the memo.
func (p *HEEB) ensureLTab() {
	// Exact float comparison, a memo-key check: alpha is stored verbatim, so bitwise equality is the invalidation contract
	if p.Opts.NoMemo || p.ltabAlpha == p.alpha {
		return
	}
	p.ltab = core.TabulateL(core.LExp{Alpha: p.alpha}, fallbackHorizon)
	p.ltabAlpha = p.alpha
}

// Evict implements join.Policy.
func (p *HEEB) Evict(st *join.State, cands []join.Tuple, n int) []int {
	if p.Opts.Adaptive && p.tracker.N() > 0 {
		p.alpha = p.tracker.Alpha(p.Opts.LifetimeEstimate)
	}
	p.ensureLTab()
	if p.fc != nil {
		p.fc.Rebind(st.Procs(), st.Hists)
	}

	// Every candidate is scored in place: the candidate indices are the
	// positions evictLowest already works with.
	p.scoreAll(st, cands)
	evict := evictLowest(p.scoreBuf, cands, n, p.victims)
	p.victims = evict

	// Track observed lifetimes for adaptive α.
	for _, i := range evict {
		p.tracker.Observe(cands[i].Arrived, st.Time)
	}
	return evict
}

// Scores implements join.Scorer: the H_x value of every candidate of the
// last Evict, the numbers it compared.
func (p *HEEB) Scores() []float64 { return p.scoreBuf }

// scoreAll scores every candidate into scoreBuf (resized as needed). Without
// a sliding window every sum runs over the whole L table, so each partner
// stream's window is bound once, at the first candidate scored against it,
// and a score is then a read of the bound table.
func (p *HEEB) scoreAll(st *join.State, cands []join.Tuple) {
	if cap(p.scoreBuf) < len(cands) {
		p.scoreBuf = make([]float64, len(cands))
	}
	p.scoreBuf = p.scoreBuf[:len(cands)]
	out := p.scoreBuf
	if p.fc == nil || p.cfg.Window > 0 {
		for i, c := range cands {
			out[i] = p.score(st, c)
		}
		return
	}
	var bound [2]core.Bound
	var isBound [2]bool
	for i, c := range cands {
		s := c.Stream.Partner()
		if !isBound[s] {
			bound[s], isBound[s] = p.fc.Bind(s, p.cfg.Band, p.ltab), true
		}
		out[i] = p.fc.Score(&bound[s], c.Value)
	}
}

// score is H_x of one candidate against its partner stream under the
// configured band (0 for an equijoin), summed over the steps the tuple has
// left in the sliding window, if there is one. It reads the forecast window
// when enabled and otherwise re-derives every forecast through the reference
// forms in internal/core; the two paths are bitwise-identical.
func (p *HEEB) score(st *join.State, tp join.Tuple) float64 {
	partner := tp.Stream.Partner()
	remaining := math.MaxInt
	if p.cfg.Window > 0 {
		remaining = tp.Arrived + p.cfg.Window - st.Time
	}
	if p.fc != nil {
		return core.BandJoinHCached(p.fc, partner, tp.Value, p.cfg.Band, p.ltab, remaining)
	}
	var l core.LFunc = core.LExp{Alpha: p.alpha}
	if p.cfg.Window > 0 {
		l = core.LWindow{Inner: l, Remaining: remaining}
	}
	if p.cfg.Band > 0 {
		return core.BandJoinH(st.Procs()[partner], st.Hists[partner], tp.Value, p.cfg.Band, l, fallbackHorizon)
	}
	return core.JoinH(st.Procs()[partner], st.Hists[partner], tp.Value, l, fallbackHorizon)
}

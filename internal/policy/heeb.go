package policy

import (
	"fmt"
	"math"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// HEEBMode selects how the HEEB policy computes its scores (Section 4.4's
// implementation techniques).
type HEEBMode int

// HEEB scoring modes.
const (
	// HEEBDirect recomputes H_x from the model at every decision.
	HEEBDirect HEEBMode = iota
	// HEEBIncremental maintains per-tuple H values with the Corollary 3
	// time-incremental update (independent streams, Lexp only); new
	// arrivals are scored directly.
	HEEBIncremental
	// HEEBPrecomputedH1 scores through a precomputed h1 curve (Theorem
	// 5(2)); both streams must be φ1 = 1 normal forecasters (random walks).
	HEEBPrecomputedH1
	// HEEBPrecomputedH2 scores through a precomputed h2 surface (Theorem
	// 5(1)); both streams must be AR(1) normal forecasters.
	HEEBPrecomputedH2
	// HEEBValueIncremental exploits Corollary 5 for linear-trend streams:
	// the score of a tuple with value v at time t depends only on the
	// offset v − slope·t, so scores are computed once per distinct offset
	// and reused forever. Falls back to direct scoring when a partner
	// stream is not a LinearTrend or when a window/band is active.
	HEEBValueIncremental
)

// String implements fmt.Stringer.
func (m HEEBMode) String() string {
	switch m {
	case HEEBDirect:
		return "direct"
	case HEEBIncremental:
		return "incremental"
	case HEEBPrecomputedH1:
		return "h1"
	case HEEBPrecomputedH2:
		return "h2"
	case HEEBValueIncremental:
		return "value-incremental"
	}
	return fmt.Sprintf("HEEBMode(%d)", int(m))
}

// HEEBOptions configures the HEEB policy.
type HEEBOptions struct {
	// Mode selects the scoring implementation. Default: HEEBDirect.
	Mode HEEBMode
	// Alpha is Lexp's α. When zero it is derived from LifetimeEstimate.
	Alpha float64
	// LifetimeEstimate is the a-priori mean cached-tuple lifetime used to
	// derive α when Alpha is zero. When it is also zero, the cache size is
	// used (the paper's choice for WALK and REAL).
	LifetimeEstimate float64
	// Adaptive re-derives α from the observed mean tuple lifetime (the
	// adaptive-α technique the paper lists as future work). It applies to
	// HEEBDirect only.
	Adaptive bool
	// AdaptiveDecay is the lifetime tracker's smoothing factor (default
	// 0.05).
	AdaptiveDecay float64
	// FallbackHorizon bounds the HEEB sum when L does not decay (default
	// 1000).
	FallbackHorizon int
	// ControlPoints is the per-axis control grid size for HEEBPrecomputedH2
	// (default 5 — the paper's 25 control points).
	ControlPoints int
	// DominancePrefilter first discards a dominated subset identified via
	// Corollary 2 and only scores the remainder. Optimal decisions are then
	// guaranteed for the prefiltered tuples; the ablation benchmarks
	// measure its cost.
	DominancePrefilter bool
	// PrefilterHorizon is the tabulation horizon for prefilter ECBs
	// (default 64).
	PrefilterHorizon int
	// NoMemo disables the forecast window and the tabulated L-value table,
	// restoring the seed implementation's re-derivation of both per
	// candidate. Scores are bitwise-identical either way (the window holds
	// the exact values the direct path computes); the switch exists so the
	// differential harness and BENCH_hotpath.json can measure the window
	// kernel against the original hot path.
	NoMemo bool
}

// HEEB is the paper's heuristic of estimated expected benefit as a
// replacement policy: it scores every candidate with H_x and discards the
// lowest.
type HEEB struct {
	Opts HEEBOptions

	cfg     join.Config
	alpha   float64
	tracker *stats.LifetimeTracker
	// incremental state: per-tuple H and its last update time.
	inc map[int]*heebEntry
	// value-incremental state: offset (v − slope·t) → H, per stream.
	offsetH [2]map[int]float64
	// precomputed forms, indexed by the stream whose model they tabulate
	// (a tuple is scored against its partner's model).
	h1 [2]*core.H1 //lint:ignore snapcomplete derived from the stream models, built lazily on first score; identical after restore because the models are config
	h2 [2]*core.H2 //lint:ignore snapcomplete derived from the stream models, built lazily on first score; identical after restore because the models are config
	// fc is the forecast window every candidate of a decision is scored
	// against, advanced at the head of each Evict/ScoreCandidates call; nil
	// when Opts.NoMemo.
	fc *core.ForecastCache //lint:ignore snapcomplete derived window, refilled after restore
	// ltab caches Lexp's e^{−Δt/α} values for the current α; ltabAlpha
	// tracks which α the table was built for (adaptive runs re-derive α).
	ltab      core.LTable //lint:ignore snapcomplete lookup table re-derived from α on demand by ensureLTab
	ltabAlpha float64     //lint:ignore snapcomplete lookup table re-derived from α on demand by ensureLTab
	// scoreBuf is the reused per-decision score slice.
	scoreBuf []float64 //lint:ignore snapcomplete per-decision score scratch, overwritten by every evict
}

type heebEntry struct {
	h    float64
	last int
}

// NewHEEB returns a HEEB policy with the given options.
func NewHEEB(opts HEEBOptions) *HEEB {
	if opts.FallbackHorizon == 0 {
		opts.FallbackHorizon = 1000
	}
	if opts.ControlPoints == 0 {
		opts.ControlPoints = 5
	}
	if opts.AdaptiveDecay == 0 {
		opts.AdaptiveDecay = 0.05
	}
	if opts.PrefilterHorizon == 0 {
		opts.PrefilterHorizon = 64
	}
	return &HEEB{Opts: opts}
}

// Name implements join.Policy.
func (p *HEEB) Name() string { return "HEEB" }

// Reset implements join.Policy.
func (p *HEEB) Reset(cfg join.Config, _ *stats.RNG) {
	p.cfg = cfg
	p.alpha = p.Opts.Alpha
	if p.alpha == 0 {
		est := p.Opts.LifetimeEstimate
		if est == 0 {
			est = float64(cfg.CacheSize)
		}
		p.alpha = stats.AlphaForLifetime(est)
	}
	p.tracker = stats.NewLifetimeTracker(p.Opts.AdaptiveDecay)
	p.inc = make(map[int]*heebEntry)
	p.offsetH = [2]map[int]float64{{}, {}}
	p.h1 = [2]*core.H1{}
	p.h2 = [2]*core.H2{}
	p.fc = nil
	p.ltabAlpha = 0
	if !p.Opts.NoMemo {
		p.fc = core.NewForecastCache(cfg.Procs, [2]*process.History{})
		p.ensureLTab()
	}
	switch p.Opts.Mode {
	case HEEBPrecomputedH1:
		for s := 0; s < 2; s++ {
			p.h1[s] = p.buildH1(cfg, s)
		}
	case HEEBPrecomputedH2:
		for s := 0; s < 2; s++ {
			p.h2[s] = p.buildH2(cfg, s)
		}
	}
}

func (p *HEEB) lexp() core.LFunc { return core.LExp{Alpha: p.alpha} }

// ensureLTab (re)tabulates the L table when α changed (Reset, or an adaptive
// re-derivation at the head of Evict).
func (p *HEEB) ensureLTab() {
	//lint:ignore floateq memo-key check: alpha is stored verbatim, so bitwise equality is the invalidation contract
	if p.Opts.NoMemo || p.ltabAlpha == p.alpha {
		return
	}
	p.ltab = core.TabulateL(core.LExp{Alpha: p.alpha}, p.Opts.FallbackHorizon) //lint:ignore scorepure deterministic α-keyed tabulation memo: the same α always yields the same table, so replay is unaffected
	p.ltabAlpha = p.alpha                                                      //lint:ignore scorepure memo key for the α-keyed tabulation above
}

// bindDecision advances the memo layers to the current state.
func (p *HEEB) bindDecision(st *join.State) {
	p.ensureLTab()
	if p.fc != nil {
		p.fc.Rebind(st.Procs(), st.Hists)
	}
}

// unclipped is the remaining value of a tuple no sliding window bounds.
const unclipped = math.MaxInt

// remaining returns the number of steps the tuple has left inside the
// sliding window, which clips its score's summation horizon.
func (p *HEEB) remaining(now int, tp join.Tuple) int {
	if p.cfg.Window > 0 {
		return tp.Arrived + p.cfg.Window - now
	}
	return unclipped
}

func (p *HEEB) buildH1(cfg join.Config, stream int) *core.H1 {
	nf, ok := cfg.Procs[stream].(process.NormalForecaster)
	if !ok {
		panic(fmt.Sprintf("policy: HEEB h1 mode requires a NormalForecaster for stream %d", stream))
	}
	sigma, drift := walkParams(cfg.Procs[stream])
	r := int(math.Ceil(6*sigma*math.Sqrt(3*p.alpha))) + 5
	lo := -r + min(0, int(3*drift*p.alpha))
	hi := r + max(0, int(3*drift*p.alpha))
	h1, err := core.PrecomputeH1(nf, p.lexp(), lo, hi, 1, p.Opts.FallbackHorizon)
	if err != nil {
		panic(fmt.Sprintf("policy: HEEB h1 precomputation failed: %v", err))
	}
	return h1
}

func (p *HEEB) buildH2(cfg join.Config, stream int) *core.H2 {
	ar, ok := cfg.Procs[stream].(*process.AR1)
	if !ok {
		panic(fmt.Sprintf("policy: HEEB h2 mode requires an AR1 model for stream %d", stream))
	}
	mean := ar.Phi0 / (1 - ar.Phi1)
	sd := ar.Sigma / math.Sqrt(1-ar.Phi1*ar.Phi1)
	lo := int(mean - 4*sd)
	hi := int(mean + 4*sd)
	n := p.Opts.ControlPoints
	h2, err := core.PrecomputeH2(ar, p.lexp(), lo, hi, lo, hi, n, n, p.Opts.FallbackHorizon)
	if err != nil {
		panic(fmt.Sprintf("policy: HEEB h2 precomputation failed: %v", err))
	}
	return h2
}

// walkParams extracts (sigma, drift) from a random-walk-like process.
func walkParams(pr process.Process) (sigma, drift float64) {
	switch w := pr.(type) {
	case *process.GaussianWalk:
		return w.Sigma, w.Drift
	case *process.AR1:
		return w.Sigma, w.Phi0
	default:
		return 1, 0
	}
}

// Evict implements join.Policy.
func (p *HEEB) Evict(st *join.State, cands []join.Tuple, n int) []int {
	evict, _ := p.evict(st, cands, n, false)
	return evict
}

// TryEvict implements Fallible: identical decisions to Evict, except that
// non-finite candidate scores (a NaN model parameter, an overflowed benefit
// sum) are reported as ErrModelDiverged instead of silently producing a
// garbage ordering. The finite check is only paid on the TryEvict path, so
// the bare hot path is unchanged.
func (p *HEEB) TryEvict(st *join.State, cands []join.Tuple, n int) ([]int, error) {
	return p.evict(st, cands, n, true)
}

func (p *HEEB) evict(st *join.State, cands []join.Tuple, n int, checked bool) ([]int, error) {
	if p.Opts.Adaptive && p.tracker.N() > 0 {
		p.alpha = p.tracker.Alpha(p.Opts.LifetimeEstimate)
	}
	p.bindDecision(st)

	var evict []int
	if p.Opts.DominancePrefilter {
		var err error
		evict, err = p.evictPrefiltered(st, cands, n, checked)
		if err != nil {
			return nil, err
		}
	} else {
		// The common path scores every candidate in place: no remaining-set
		// map, no live-subset copies — the candidate indices are the
		// positions evictLowest already works with.
		p.scoreBuf = p.scoreAll(st, cands, p.scoreBuf[:0])
		if checked {
			if i := firstNonFinite(p.scoreBuf); i >= 0 {
				return nil, fmt.Errorf("%w: candidate %d (value %d) scored %g", ErrModelDiverged, i, cands[i].Value, p.scoreBuf[i])
			}
		}
		evict = evictLowest(p.scoreBuf, cands, n)
	}

	// Track observed lifetimes for adaptive α.
	for _, i := range evict {
		p.tracker.Observe(cands[i].Arrived, st.Time)
		delete(p.inc, cands[i].ID)
	}
	return evict, nil
}

// evictPrefiltered is the Corollary 2 path: discard a dominated subset
// first, then score only the remainder. With checked set, non-finite scores
// of the surviving candidates fail the decision as ErrModelDiverged.
func (p *HEEB) evictPrefiltered(st *join.State, cands []join.Tuple, n int, checked bool) ([]int, error) {
	evict := make([]int, 0, n)
	remaining := make(map[int]bool, len(cands))
	for i := range cands {
		remaining[i] = true
	}
	ecbs := make([]core.ECB, len(cands))
	for i, c := range cands {
		partner := c.Stream.Partner()
		var b core.ECB
		if p.fc != nil {
			b = core.BandJoinECBCached(p.fc, partner, c.Value, p.cfg.Band, p.Opts.PrefilterHorizon)
		} else {
			b = core.BandJoinECB(st.Procs()[partner], st.Hists[partner], c.Value, p.cfg.Band, p.Opts.PrefilterHorizon)
		}
		if p.cfg.Window > 0 {
			b = core.WindowECB(b, c.Arrived, st.Time, p.cfg.Window)
		}
		ecbs[i] = b
	}
	for _, i := range core.DominatedSubset(ecbs, n) {
		evict = append(evict, i)
		delete(remaining, i)
	}
	if len(evict) < n {
		live := make([]join.Tuple, 0, len(remaining))
		liveIdx := make([]int, 0, len(remaining))
		for i := range cands {
			if remaining[i] {
				live = append(live, cands[i])
				liveIdx = append(liveIdx, i)
			}
		}
		liveScores := p.scoreAll(st, live, nil)
		if checked {
			if i := firstNonFinite(liveScores); i >= 0 {
				return nil, fmt.Errorf("%w: candidate %d (value %d) scored %g", ErrModelDiverged, liveIdx[i], live[i].Value, liveScores[i])
			}
		}
		for _, j := range evictLowest(liveScores, live, n-len(evict)) {
			evict = append(evict, liveIdx[j])
		}
	}
	return evict, nil
}

// scoreAll scores every candidate into out (resized as needed).
func (p *HEEB) scoreAll(st *join.State, cands []join.Tuple, out []float64) []float64 {
	if cap(out) < len(cands) {
		out = make([]float64, len(cands))
	} else {
		out = out[:len(cands)]
	}
	for i, c := range cands {
		out[i] = p.score(st, c)
	}
	return out
}

// ScoreCandidates returns the H_x value of every candidate under the
// configured scoring mode — the numbers Evict compares. The telemetry
// layer's decision trace uses it to record why each victim was chosen
// (telemetry.CandidateScorer).
func (p *HEEB) ScoreCandidates(st *join.State, cands []join.Tuple) []float64 {
	p.bindDecision(st)
	return p.scoreAll(st, cands, nil)
}

// score computes H for one candidate according to the configured mode.
// Band joins are handled by the direct and incremental modes (band
// probabilities slot into the same sums); precomputed forms tabulate the
// equijoin score, so they fall back to direct scoring under a band.
func (p *HEEB) score(st *join.State, tp join.Tuple) float64 {
	partner := tp.Stream.Partner()
	if p.cfg.Band > 0 {
		switch p.Opts.Mode {
		case HEEBIncremental:
			return p.scoreIncremental(st, tp)
		default:
			return p.joinH(st, partner, tp.Value, p.remaining(st.Time, tp))
		}
	}
	switch p.Opts.Mode {
	case HEEBPrecomputedH1:
		return p.clipWindow(st, tp, p.h1[partner].At(st.Hists[partner].Last(), tp.Value))
	case HEEBPrecomputedH2:
		return p.clipWindow(st, tp, p.h2[partner].At(st.Hists[partner].Last(), tp.Value))
	case HEEBIncremental:
		return p.scoreIncremental(st, tp)
	case HEEBValueIncremental:
		return p.scoreValueIncremental(st, tp)
	default:
		return p.joinH(st, partner, tp.Value, p.remaining(st.Time, tp))
	}
}

// joinH is the direct score of value v against the partner stream under the
// configured band (0 for an equijoin), for a tuple with the given number of
// steps left in the sliding window. It reads the forecast window when
// enabled and otherwise re-derives every forecast through the reference
// forms in internal/core; the two paths are bitwise-identical.
func (p *HEEB) joinH(st *join.State, partner core.StreamID, v, remaining int) float64 {
	if p.fc != nil {
		return core.BandJoinHCached(p.fc, partner, v, p.cfg.Band, p.ltab, remaining)
	}
	l := p.lexp()
	if remaining != unclipped {
		l = core.LWindow{Inner: l, Remaining: remaining}
	}
	if p.cfg.Band > 0 {
		return core.BandJoinH(st.Procs()[partner], st.Hists[partner], v, p.cfg.Band, l, p.Opts.FallbackHorizon)
	}
	return core.JoinH(st.Procs()[partner], st.Hists[partner], v, l, p.Opts.FallbackHorizon)
}

// scoreValueIncremental implements Corollary 5: for a linear-trend partner,
// translate the (value, time) pair to its time-invariant offset and reuse
// any previously computed H for that offset.
func (p *HEEB) scoreValueIncremental(st *join.State, tp join.Tuple) float64 {
	partner := tp.Stream.Partner()
	proc := st.Procs()[partner]
	lt, ok := proc.(*process.LinearTrend)
	if !ok || p.cfg.Window > 0 {
		return p.joinH(st, partner, tp.Value, p.remaining(st.Time, tp))
	}
	offset := tp.Value - lt.Slope*st.Time
	if h, ok := p.offsetH[partner][offset]; ok {
		return h
	}
	h := p.joinH(st, partner, tp.Value, unclipped)
	//lint:ignore scorepure per-decision offset memo: h is a deterministic function of (stream state, seed) and the map is rebound each decision, so replay is bit-identical
	p.offsetH[partner][offset] = h
	return h
}

// clipWindow zeroes the precomputed score for expired tuples under window
// semantics (the precomputed forms tabulate the unwindowed H).
func (p *HEEB) clipWindow(st *join.State, tp join.Tuple, h float64) float64 {
	if p.cfg.Window > 0 && tp.Arrived+p.cfg.Window-st.Time <= 0 {
		return 0
	}
	return h
}

// scoreIncremental maintains H via Corollary 3. The update requires
// independent streams and no window clipping; Reset panics are avoided by
// validating lazily here.
func (p *HEEB) scoreIncremental(st *join.State, tp join.Tuple) float64 {
	partner := tp.Stream.Partner()
	proc := st.Procs()[partner]
	if !proc.Independent() || p.cfg.Window > 0 {
		// Fall back to direct scoring where Corollary 3 does not apply.
		return p.joinH(st, partner, tp.Value, p.remaining(st.Time, tp))
	}
	e, ok := p.inc[tp.ID]
	if !ok {
		h := p.joinH(st, partner, tp.Value, unclipped)
		//lint:ignore scorepure Corollary-3 incremental memo seed: the entry is a deterministic function of (stream state, seed), advanced in lockstep with stream time on every replay
		p.inc[tp.ID] = &heebEntry{h: h, last: st.Time}
		return h
	}
	// Catch up one Corollary 3 step per elapsed time step. For independent
	// streams the forecast of time u does not depend on the conditioning
	// point, so the current history serves for all intermediate steps. The
	// recurrence holds verbatim for band probabilities.
	for e.last < st.Time {
		u := e.last + 1 // absolute time being folded in
		pNow := core.BandProb(p.forecastAt(proc, partner, st.Hists[partner], u), tp.Value, p.cfg.Band)
		e.h = core.JoinHStep(e.h, p.alpha, pNow) //lint:ignore scorepure Corollary-3 incremental memo advance: a deterministic recurrence over stream time, identical on every replay
		e.last++                                 //lint:ignore scorepure memo cursor for the Corollary-3 recurrence above
	}
	return e.h
}

// forecastAt returns the PMF of the partner's arrival at absolute time u,
// evaluated from the current history (valid for independent streams, where
// conditioning does not matter). Future forecasts go through the forecast
// window when enabled; already-observed steps condition on a prefix view of
// the history and cannot be shared.
func (p *HEEB) forecastAt(proc process.Process, partner core.StreamID, h *process.History, u int) dist.PMF {
	delta := u - h.T0()
	if delta >= 1 {
		if p.fc != nil {
			return p.fc.At(partner, delta)
		}
		return proc.Forecast(h, delta)
	}
	// u is already observed: the "probability" seen from u-1 of the value
	// at u.
	return proc.Forecast(h.Prefix(u), 1)
}

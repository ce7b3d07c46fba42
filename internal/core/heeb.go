package core

import (
	"math"

	"stochstream/internal/process"
)

// DefaultEps is the truncation threshold for HEEB's infinite sum: terms are
// summed until L(Δt) falls below it.
const DefaultEps = 1e-9

// MaxHorizon bounds every HEEB summation as a safety net for unbounded L
// functions (LInf) applied to join problems.
const MaxHorizon = 100000

// HorizonFor returns the summation horizon for l: its own decay horizon if
// bounded, otherwise fallback (clamped to [1, MaxHorizon]).
func HorizonFor(l LFunc, fallback int) int {
	h := l.Horizon(DefaultEps)
	if h <= 0 {
		h = fallback
	}
	if h < 1 {
		h = 1
	}
	if h > MaxHorizon {
		h = MaxHorizon
	}
	return h
}

// HFromECB evaluates the defining HEEB sum of Section 4.3 from a tabulated
// ECB: H_x = B_x(1)·L(1) + Σ_{Δt≥2} (B_x(Δt) − B_x(Δt−1))·L(Δt), truncated
// at the ECB's tabulated horizon.
func HFromECB(b ECB, l LFunc) float64 {
	var h float64
	for dt := 1; dt <= len(b); dt++ {
		h += b.Increment(dt) * l.At(dt)
	}
	return h
}

// JoinH computes HEEB's score for a candidate tuple with value v in the
// joining problem, via the equivalent form
// H_x = Σ_{Δt≥1} Pr{X^partner_{t0+Δt} = v | x̄_{t0}}·L(Δt)
// (Section 4.3). fallbackHorizon bounds the sum when L does not decay.
//
// It derives every forecast from the model and is the reference the window
// kernel behind BandJoinHCached is held bitwise equal to.
func JoinH(partner process.Process, h *process.History, v int, l LFunc, fallbackHorizon int) float64 {
	horizon := HorizonFor(l, fallbackHorizon)
	var sum float64
	for dt := 1; dt <= horizon; dt++ {
		p := partner.Forecast(h, dt).Prob(v)
		if p != 0 {
			sum += p * l.At(dt)
		}
	}
	return sum
}

// BandJoinHCached is BandJoinH (and, with eps = 0, JoinH) over the forecast
// window of fc and a tabulated L, summed over Δt = 1..horizon or the length
// of the table, whichever is shorter; a sliding-window clip is passed as the
// horizon (the tuple's remaining steps in the window) instead of wrapping l in
// an LWindow. It adds the same non-zero terms as the reference loop in the
// same ascending-Δt order, so the two agree bitwise; the Δt whose support
// cannot meet [v−eps, v+eps] contribute exact zeros and are skipped without
// being visited (window.span). A sum over the whole table is one Score of a
// Bound made for it, so it is kept under the candidate's coordinate when the
// window has one (window.origin) and read from there the next time; a clipped
// sum is another number and goes straight to the kernel.
func BandJoinHCached(fc *ForecastCache, partner StreamID, v, eps int, l LTable, horizon int) float64 {
	n := min(horizon, len(l.vals))
	if n <= 0 {
		return 0
	}
	if n == len(l.vals) {
		b := fc.Bind(partner, eps, l)
		return fc.Score(&b, v)
	}
	return fc.upTo(partner, n).sum(n, v, eps, l)
}

// sum is the kernel of BandJoinHCached and Score over f[:n].
func (w *window) sum(n, v, eps int, l LTable) float64 {
	v -= w.org
	from, to := w.span(n, v-eps, v+eps)
	f, lv := w.f[:n], l.vals[:n]
	var sum float64
	if eps == 0 {
		for i := from; i < to; i++ {
			d := &f[i]
			if j := v - d.Off; uint(j) < uint(len(d.P)) {
				if p := d.P[j]; p != 0 {
					sum += p * lv[i]
				}
			}
		}
		return sum
	}
	for i := from; i < to; i++ {
		d := &f[i]
		var p float64
		for j, end := max(v-eps-d.Off, 0), min(v+eps-d.Off+1, len(d.P)); j < end; j++ {
			p += d.P[j]
		}
		if p != 0 {
			sum += p * lv[i]
		}
	}
	return sum
}

// CacheH computes HEEB's score for a candidate database tuple with value v
// in the caching problem, via the first-reference form
// H_x = Σ_{Δt≥1} Pr{(X_{t0+Δt} = v) ∩ (X_t ≠ v for t0 < t < t0+Δt)}·L(Δt).
// The product expansion requires an independent reference process; Markov
// reference streams use MarginalH (Theorem 5) instead.
func CacheH(ref process.Process, h *process.History, v int, l LFunc, fallbackHorizon int) float64 {
	if !ref.Independent() {
		panic("core: CacheH requires an independent reference process; see MarginalH")
	}
	horizon := HorizonFor(l, fallbackHorizon)
	var sum float64
	notRef := 1.0
	for dt := 1; dt <= horizon; dt++ {
		p := ref.Forecast(h, dt).Prob(v)
		sum += notRef * p * l.At(dt)
		notRef *= 1 - p
		if notRef < DefaultEps {
			break
		}
	}
	return sum
}

// MarginalH computes the marginal-based HEEB score
// H_x = Σ_{Δt≥1} Pr{X_{t0+Δt} = v | x̄_{t0}}·L(Δt)
// using a closed-form normal forecaster (Gaussian random walk or AR(1)).
// This is exactly the quantity Theorem 5's h1/h2 functions tabulate: its
// constructive proof derives the marginal, so random-walk and AR(1) case
// studies (Sections 5.5 and 6.5) score tuples with this form for both
// joining and caching.
func MarginalH(nf process.NormalForecaster, last, v int, l LFunc, fallbackHorizon int) float64 {
	horizon := HorizonFor(l, fallbackHorizon)
	var sum float64
	for dt := 1; dt <= horizon; dt++ {
		lv := l.At(dt)
		if lv == 0 {
			continue
		}
		mean, sd := nf.ForecastNormal(last, dt)
		sum += normalMass(v, mean, sd) * lv
	}
	return sum
}

// normalMass is the discretized normal mass at integer v.
func normalMass(v int, mean, sd float64) float64 {
	if sd <= 0 {
		if int(math.Round(mean)) == v {
			return 1
		}
		return 0
	}
	a := (float64(v) - 0.5 - mean) / (sd * math.Sqrt2)
	b := (float64(v) + 0.5 - mean) / (sd * math.Sqrt2)
	return 0.5 * (math.Erf(b) - math.Erf(a))
}

// JoinHStep is the time-incremental update of Corollary 3 for Lexp and
// independent streams: given H at time t0−1 and pNow = Pr{X^partner_{t0} =
// v}, the score at t0 is e^{1/α}·H_{t0−1} − pNow.
func JoinHStep(prev float64, alpha float64, pNow float64) float64 {
	return math.Exp(1/alpha)*prev - pNow
}

// CacheHStep is the time-incremental update of Corollary 4 for Lexp and an
// independent reference stream: H_{t0} = (e^{1/α}·H_{t0−1} − pNow)/(1 −
// pNow), where pNow = Pr{X^ref_{t0} = v}. pNow = 1 (the tuple is being
// referenced right now with certainty) has no finite update; the result is
// +Inf and callers should recompute directly.
func CacheHStep(prev float64, alpha float64, pNow float64) float64 {
	return (math.Exp(1/alpha)*prev - pNow) / (1 - pNow)
}

// TransferValue implements the value-incremental technique of Corollary 5
// for a linear-trend stream X_t = a·t + b + Y_t: the ECB (and hence H) of a
// tuple with value v at time t equals that of a tuple with value
// v + a·(t'−t) at time t'. Given a new tuple's value at time tNew, it
// returns the value whose score at time tRef is identical.
func TransferValue(slope int, vNew, tNew, tRef int) int {
	return vNew + slope*(tRef-tNew)
}

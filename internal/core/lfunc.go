package core

import "math"

// LFunc estimates the probability that a candidate tuple will still be
// cached Δt steps from now (Section 4.3). A valid LFunc satisfies the five
// properties of Section 4.3: values in [0,1], non-increasing in Δt,
// convergence of the HEEB sum, dominance preservation across tuples (trivial
// when every tuple shares one LFunc, as all case studies here do), and
// L(1) > 0.
type LFunc interface {
	// At returns the survival estimate at Δt >= 1.
	At(dt int) float64
	// Horizon returns a Δt beyond which At is below eps, suitable for
	// truncating HEEB's infinite sum. Unbounded L functions (LInf) return 0
	// and the caller must impose its own horizon.
	Horizon(eps float64) int
}

// LFixed is Lfixed(Δt) = 1 for Δt ≤ DT and 0 afterwards: HEEB under the
// assumption that every tuple is replaced after exactly DT steps, giving
// H_x = B_x(DT).
type LFixed struct{ DT int }

// At implements LFunc.
func (l LFixed) At(dt int) float64 {
	if dt <= l.DT {
		return 1
	}
	return 0
}

// Horizon implements LFunc.
func (l LFixed) Horizon(float64) int { return l.DT }

// LInf is Linf(Δt) = 1: H_x becomes lim B_x(Δt), the probability the tuple
// is ever referenced. It converges for caching problems only, so callers
// must bound the summation horizon themselves.
type LInf struct{}

// At implements LFunc.
func (LInf) At(int) float64 { return 1 }

// Horizon implements LFunc: LInf never decays.
func (LInf) Horizon(float64) int { return 0 }

// LInv is Linv(Δt) = 1/Δt: H_x becomes the expected inverse waiting time.
// Like LInf it is intended for caching problems; the harmonic tail means
// callers should bound the horizon.
type LInv struct{}

// At implements LFunc.
func (LInv) At(dt int) float64 { return 1 / float64(dt) }

// Horizon implements LFunc.
func (LInv) Horizon(eps float64) int {
	if eps <= 0 {
		return 0
	}
	return int(math.Ceil(1 / eps))
}

// LExp is Lexp(Δt) = e^{−Δt/α}, the paper's L function of choice: it
// guarantees convergence of H and admits the time-incremental computation of
// Corollaries 3–4. α should be chosen so the predicted mean tuple lifetime
// 1/(1−e^{−1/α}) matches the estimated or observed lifetime
// (stats.AlphaForLifetime).
type LExp struct{ Alpha float64 }

// At implements LFunc.
func (l LExp) At(dt int) float64 { return math.Exp(-float64(dt) / l.Alpha) }

// Horizon implements LFunc.
func (l LExp) Horizon(eps float64) int {
	if eps <= 0 {
		eps = 1e-12
	}
	return int(math.Ceil(l.Alpha*math.Log(1/eps))) + 1
}

// LTable is an LFunc whose leading values are tabulated once and then read
// from a slice: the HEEB summation evaluates L(Δt) per candidate per horizon
// step, which for LExp means a math.Exp call each — identical across all
// candidates of a decision. Values beyond the table (and Horizon) delegate to
// the inner function, so an LTable is value-for-value interchangeable with
// the LFunc it tabulates.
type LTable struct {
	inner LFunc
	vals  []float64
}

// TabulateL tabulates l over Δt = 1..HorizonFor(l, fallbackHorizon).
func TabulateL(l LFunc, fallbackHorizon int) LTable {
	horizon := HorizonFor(l, fallbackHorizon)
	vals := make([]float64, horizon)
	for dt := 1; dt <= horizon; dt++ {
		vals[dt-1] = l.At(dt)
	}
	return LTable{inner: l, vals: vals}
}

// At implements LFunc.
func (l LTable) At(dt int) float64 {
	if dt <= len(l.vals) {
		return l.vals[dt-1]
	}
	return l.inner.At(dt)
}

// Horizon implements LFunc by delegating to the tabulated function.
func (l LTable) Horizon(eps float64) int { return l.inner.Horizon(eps) }

// LWindow clips an inner L function to sliding-window semantics (Section 7):
// the survival probability is zero from the step the tuple leaves the
// window. Remaining is the number of steps the tuple has left inside the
// window (≤ 0 means already expired).
type LWindow struct {
	Inner     LFunc
	Remaining int
}

// At implements LFunc.
func (l LWindow) At(dt int) float64 {
	if dt > l.Remaining {
		return 0
	}
	return l.Inner.At(dt)
}

// Horizon implements LFunc.
func (l LWindow) Horizon(eps float64) int {
	if l.Remaining <= 0 {
		return 1
	}
	if h := l.Inner.Horizon(eps); h > 0 && h < l.Remaining {
		return h
	}
	return l.Remaining
}

package core

import (
	"fmt"
	"math"

	"stochstream/internal/process"
)

// The kernels below are the paper's math that the tests check served code
// against, or check against served code; nothing outside tests calls them.

// Increment returns the single-step expected benefit at Δt,
// B_x(Δt) − B_x(Δt−1) (with B_x(0) = 0).
func (b ECB) Increment(dt int) float64 {
	if dt == 1 {
		return b.At(1)
	}
	return b.At(dt) - b.At(dt-1)
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

// WindowECB clips an ECB to sliding-window join semantics (Section 7): a
// tuple that arrived at time arrived with window w stops producing benefit
// once it leaves the window at time arrived+w. With t0 the current time the
// clipped ECB is identically zero if the tuple has already expired, and
// min(B(Δt), B(arrived+w−t0)) otherwise.
func WindowECB(b ECB, arrived, t0, w int) ECB {
	if w <= 0 {
		return b
	}
	remaining := arrived + w - t0
	out := make(ECB, len(b))
	if remaining <= 0 {
		return out
	}
	ceiling := b.At(remaining)
	for i := range b {
		out[i] = min(b[i], ceiling)
	}
	return out
}

// Comparable reports whether one of the two ECBs dominates the other.
func Comparable(a, b ECB) bool { return Dominates(a, b) || Dominates(b, a) }

// NewLExp validates α > 0 and returns the L function.
func NewLExp(alpha float64) LExp {
	if alpha <= 0 {
		panic(fmt.Sprintf("core: LExp requires alpha > 0, got %g", alpha))
	}
	return LExp{Alpha: alpha}
}

// CheckLProperties verifies the testable Section 4.3 properties of an LFunc
// over Δt = 1..horizon: range [0,1], monotone non-increasing, and L(1) > 0
// when strictlyPositive is requested (Property 5). It returns a descriptive
// error for the first violation, or nil.
func CheckLProperties(l LFunc, horizon int, strictlyPositive bool) error {
	prev := math.Inf(1)
	for dt := 1; dt <= horizon; dt++ {
		v := l.At(dt)
		if v < 0 || v > 1 {
			return fmt.Errorf("core: L(%d) = %g outside [0,1]", dt, v)
		}
		if v > prev {
			return fmt.Errorf("core: L not non-increasing at Δt=%d (%g > %g)", dt, v, prev)
		}
		prev = v
	}
	if strictlyPositive && l.At(1) <= 0 {
		return fmt.Errorf("core: L(1) = %g, want > 0", l.At(1))
	}
	return nil
}

// FlowExpectStep builds the Section 3.1 network-flow graph for the current
// time step and solves it: given the candidate tuples (cache content plus
// new arrivals), the two stream models and their observed histories, a cache
// of size cacheSize and a look-ahead of l steps, it returns which candidates
// an expected-benefit-maximizing predetermined replacement sequence keeps
// now.
//
// procs[StreamR] models stream R and procs[StreamS] stream S; hists are the
// corresponding observed histories through the current time t0.
func FlowExpectStep(cands []Candidate, procs [2]process.Process, hists [2]*process.History, cacheSize, l int) (FlowDecision, error) {
	return FlowExpectStepWindow(cands, procs, hists, cacheSize, l, 0)
}

// FlowExpectStepWindow is FlowExpectStep under sliding-window join semantics
// (Section 7): a tuple's benefit arcs are zeroed from the step its age
// exceeds window. window = 0 means regular semantics.
func FlowExpectStepWindow(cands []Candidate, procs [2]process.Process, hists [2]*process.History, cacheSize, l, window int) (FlowDecision, error) {
	return FlowExpectStepCached(cands, NewForecastCache(procs, hists), cacheSize, l, window)
}

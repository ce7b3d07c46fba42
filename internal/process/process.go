// Package process models input streams as discrete-time stochastic processes
// {X_t}, exactly as in Section 2 of the paper: at every time step a stream
// produces one tuple whose join-attribute value is a random variable. Each
// model can both generate sample paths and forecast the conditional
// distribution Pr{X_{t0+Δ} = v | x̄_{t0}} of a future value given the
// observed history, which is the quantity every ECB and HEEB computation in
// internal/core consumes.
package process

import (
	"math"

	"stochstream/internal/dist"
	"stochstream/internal/stats"
)

// NoValue is the join-attribute value used for tuples that can never join
// (the paper's "−" tuples) and for forecasts past the end of a deterministic
// sequence. It is far outside every experiment's value domain.
const NoValue = math.MinInt32

// Process is a stochastic stream model.
//
// Forecast must not mutate the model: a sharded runtime hands one model value
// to every shard goroutine, so Forecast runs concurrently on it. Tables a
// model derives from its parameters on demand go through deltaMemo, which
// synchronizes their growth; the parameters themselves must not change once
// the model is in use.
type Process interface {
	// Forecast returns the conditional distribution of X_{t0+delta} given
	// the history h observed through time t0 = h.T0(). delta must be >= 1.
	Forecast(h *History, delta int) dist.PMF
	// Generate samples a path of n values starting at time 0.
	Generate(rng *stats.RNG, n int) []int
	// Independent reports whether the per-step random variables are
	// mutually independent, in which case Forecast(h, delta) depends on h
	// only through the absolute time h.T0()+delta. Time- and
	// value-incremental HEEB updates (Corollaries 3–5) require independence,
	// and core.ForecastCache keeps an independent model's forecasts across
	// decisions on the strength of it.
	Independent() bool
}

// Incremental is implemented by models whose Δ-step forecast is one
// history-independent distribution of the increment X_{t0+Δ} − X_{t0}, moved
// to the last observation (random walks):
//
//	Forecast(h, delta) ≡ dist.Shift(Increment(delta), Last(h))
//
// core.ForecastCache tabulates the increments of such a model once and moves
// them between decisions instead of forecasting again.
type Incremental interface {
	// Increment returns the distribution of X_{t0+delta} − X_{t0}.
	Increment(delta int) dist.PMF
	// Last returns the value forecasts are conditioned on: the most recent
	// observation, or the model's initial value for an empty history.
	Last(h *History) int
}

// NormalForecaster is implemented by models whose Δ-step forecast is a
// discretized normal with a closed-form mean and standard deviation
// (Gaussian random walks and AR(1) streams). HEEB's precomputation uses it
// to avoid materializing a PMF table per horizon step.
type NormalForecaster interface {
	// ForecastNormal returns the mean and standard deviation of
	// X_{t0+delta} conditioned on X_{t0} = last.
	ForecastNormal(last int, delta int) (mean, sd float64)
}

// History is what a stream's past conditions a forecast on: how many values
// were observed and the last of them. Every model of Sections 2 and 5 gives
// Pr{X_{t0+Δ} | x̄_{t0}} as a function of t0 and x_{t0} alone, so the pair is
// the whole state, the same size however long the stream has run; a consumer
// of more of the past (PROB's value frequencies) keeps it itself, fed at
// arrival (join.ArrivalObserver). The zero value is an empty history.
type History struct{ n, last int }

// NewHistory returns the history of a stream that has produced vals.
func NewHistory(vals ...int) *History {
	h := &History{}
	for _, v := range vals {
		h.Append(v)
	}
	return h
}

// Append records the next observation.
func (h *History) Append(v int) { h.n, h.last = h.n+1, v }

// AppendAt records v as the observation at time t ≥ T0()+1. The observations
// in between are not needed: no model conditions on more than t0 and x_t0.
func (h *History) AppendAt(t, v int) { h.n, h.last = t+1, v }

// Restore makes h what a checkpoint recorded: n observations ending in last.
func (h *History) Restore(n, last int) { h.n, h.last = n, last }

// Len returns the number of observations.
func (h *History) Len() int { return h.n }

// T0 returns the current time (index of the last observation), or -1 when
// nothing has been observed.
func (h *History) T0() int { return h.n - 1 }

// Last returns the most recent observation; it panics on an empty history.
func (h *History) Last() int {
	if h.n == 0 {
		panic("process: Last of an empty history")
	}
	return h.last
}

// LastOr returns the most recent observation, or init when there is none (a
// nil history included): what a first-order model conditions on.
func (h *History) LastOr(init int) int {
	if h == nil || h.n == 0 {
		return init
	}
	return h.last
}

// Deterministic is the offline-stream model of Section 5.1: the whole
// sequence is known in advance, so Pr{X_t = Seq[t]} = 1. Forecasts past the
// end of the sequence are point masses at NoValue.
type Deterministic struct {
	Seq []int
}

// Forecast implements Process.
func (d *Deterministic) Forecast(h *History, delta int) dist.PMF {
	checkDelta(delta)
	t := h.T0() + delta
	if t < 0 || t >= len(d.Seq) {
		return dist.NewPointMass(NoValue)
	}
	return dist.NewPointMass(d.Seq[t])
}

// Generate implements Process by replaying the sequence (truncating or
// padding with NoValue as needed).
func (d *Deterministic) Generate(_ *stats.RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		if i < len(d.Seq) {
			out[i] = d.Seq[i]
		} else {
			out[i] = NoValue
		}
	}
	return out
}

// Independent implements Process. Degenerate (point-mass) variables are
// trivially independent.
func (d *Deterministic) Independent() bool { return true }

// Stationary is the stationary independent model of Section 5.2: one
// time-invariant distribution P for every step.
type Stationary struct {
	P dist.PMF
}

// Forecast implements Process.
func (s *Stationary) Forecast(_ *History, delta int) dist.PMF {
	checkDelta(delta)
	return s.P
}

// Generate implements Process.
func (s *Stationary) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = dist.Sample(s.P, rng.Float64())
	}
	return out
}

// Independent implements Process.
func (s *Stationary) Independent() bool { return true }

// LinearTrend is the Section 5.3/5.4 model X_t = Slope·t + Intercept + Y_t
// with i.i.d. zero-mean noise Y. The TOWER, ROOF and FLOOR workloads are
// linear trends with bounded normal or bounded uniform noise; a stream
// lagging k steps behind another has Intercept lowered by k·Slope.
type LinearTrend struct {
	Slope     int
	Intercept int
	Noise     dist.PMF
}

// TrendAt returns the deterministic trend component f(t).
func (l *LinearTrend) TrendAt(t int) int { return l.Slope*t + l.Intercept }

// Forecast implements Process.
func (l *LinearTrend) Forecast(h *History, delta int) dist.PMF {
	checkDelta(delta)
	return dist.Shift(l.Noise, l.TrendAt(h.T0()+delta))
}

// Generate implements Process.
func (l *LinearTrend) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	for t := range out {
		out[t] = l.TrendAt(t) + dist.Sample(l.Noise, rng.Float64())
	}
	return out
}

// Independent implements Process.
func (l *LinearTrend) Independent() bool { return true }

// GeneralTrend generalizes LinearTrend to an arbitrary trend function f(t);
// Section 5.3's caching analysis holds for any non-decreasing f.
type GeneralTrend struct {
	F     func(t int) int
	Noise dist.PMF
}

// Forecast implements Process.
func (g *GeneralTrend) Forecast(h *History, delta int) dist.PMF {
	checkDelta(delta)
	return dist.Shift(g.Noise, g.F(h.T0()+delta))
}

// Generate implements Process.
func (g *GeneralTrend) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	for t := range out {
		out[t] = g.F(t) + dist.Sample(g.Noise, rng.Float64())
	}
	return out
}

// Independent implements Process.
func (g *GeneralTrend) Independent() bool { return true }

func checkDelta(delta int) {
	if delta < 1 {
		panic("process: Forecast requires delta >= 1")
	}
}

package process

import (
	"math"
	"sync"
	"sync/atomic"

	"stochstream/internal/dist"
	"stochstream/internal/stats"
)

// deltaMemo is a grow-only table of values a model derives per horizon step,
// entry Δ−1 for step Δ, that any number of goroutines may read and extend
// at once: readers take the published slice with one atomic load, growth is
// serialized and only ever writes past the published length before publishing
// the longer slice. The zero value is empty and ready.
type deltaMemo[T any] struct {
	mu   sync.Mutex
	tabs atomic.Pointer[[]T]
}

// get returns entry delta, first extending the table one entry at a time
// with next, which is given the entries built so far.
func (m *deltaMemo[T]) get(delta int, next func(built []T) T) T {
	if p := m.tabs.Load(); p != nil && len(*p) >= delta {
		return (*p)[delta-1]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var t []T
	if p := m.tabs.Load(); p != nil {
		t = *p
	}
	for len(t) < delta {
		t = append(t, next(t))
	}
	m.tabs.Store(&t)
	return t[delta-1]
}

// RandomWalk is the Section 5.5 model X_t = X_{t-1} + S_t with i.i.d. integer
// steps S_t ~ Step. A constant drift φ0 is expressed as a nonzero step mean
// (shift the step distribution). The Δ-step forecast is the Δ-fold
// convolution of the step distribution shifted by the last observation;
// convolution powers are memoized because every candidate tuple at a given
// time shares them.
type RandomWalk struct {
	Step dist.PMF
	Init int

	powers deltaMemo[*dist.Table] // powers[d] = Δ=d+1 fold convolution
}

// Forecast implements Process.
func (w *RandomWalk) Forecast(h *History, delta int) dist.PMF {
	return dist.Shift(w.Increment(delta), w.Last(h))
}

// Last implements Incremental.
func (w *RandomWalk) Last(h *History) int { return h.LastOr(w.Init) }

// Increment implements Incremental: the delta-fold convolution of Step.
func (w *RandomWalk) Increment(delta int) dist.PMF {
	checkDelta(delta)
	return w.powers.get(delta, func(built []*dist.Table) *dist.Table {
		if len(built) == 0 {
			return dist.Materialize(w.Step)
		}
		return dist.Convolve(built[len(built)-1], w.Step)
	})
}

// Generate implements Process.
func (w *RandomWalk) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	step := dist.SamplerOf(w.Step)
	x := w.Init
	for t := range out {
		x += step(rng.Float64())
		out[t] = x
	}
	return out
}

// Independent implements Process: successive values share the accumulated
// walk, so they are dependent.
func (w *RandomWalk) Independent() bool { return false }

// GaussianWalk is a random walk with drift and normal steps,
// X_t = φ0 + X_{t-1} + Y_t with Y_t ~ N(0, Sigma²), generated on the integer
// lattice by rounding. Its Δ-step forecast has the closed form
// N(x + Δ·Drift, Δ·Sigma²), which makes it the model of choice for the
// paper's WALK workload and the Figure 6 h1 precomputation.
type GaussianWalk struct {
	Drift float64
	Sigma float64
	Init  int

	incs deltaMemo[*dist.Table] // incs[d] = Increment(d+1)
}

// Forecast implements Process.
func (w *GaussianWalk) Forecast(h *History, delta int) dist.PMF {
	return dist.Shift(w.Increment(delta), w.Last(h))
}

// Increment implements Incremental: N(Δ·Drift, Δ·Sigma²) discretized around
// zero. Shifting it by the last observation x equals discretizing
// N(x + Δ·Drift, Δ·Sigma²) directly cell for cell whenever Δ·Drift is an
// integer (every cell boundary is then the same exactly representable
// half-integer either way); for a fractional Δ·Drift, x + Δ·Drift rounds
// once more than Δ·Drift alone and a cell may differ in its last ulp.
func (w *GaussianWalk) Increment(delta int) dist.PMF {
	checkDelta(delta)
	return w.incs.get(delta, func(built []*dist.Table) *dist.Table {
		mean, sd := w.ForecastNormal(0, len(built)+1)
		return dist.Normal(mean, sd, 1e-9)
	})
}

// ForecastNormal implements NormalForecaster.
func (w *GaussianWalk) ForecastNormal(last int, delta int) (mean, sd float64) {
	return float64(last) + float64(delta)*w.Drift, w.Sigma * math.Sqrt(float64(delta))
}

// Last implements Incremental.
func (w *GaussianWalk) Last(h *History) int { return h.LastOr(w.Init) }

// Generate implements Process. The walk accumulates in floating point and is
// rounded per step, so rounding error does not compound.
func (w *GaussianWalk) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	x := float64(w.Init)
	for t := range out {
		x += w.Drift + w.Sigma*rng.NormFloat64()
		out[t] = int(math.Round(x))
	}
	return out
}

// Independent implements Process.
func (w *GaussianWalk) Independent() bool { return false }

// AR1 is the first-order autoregressive model of Theorem 5 and the REAL
// experiment: X_t = Phi0 + Phi1·X_{t-1} + Y_t with Y_t ~ N(0, Sigma²).
// Values are kept on the integer lattice (the REAL workload scales
// temperatures by 10 to preserve the paper's 0.1 °C granularity).
//
// The Δ-step forecast conditioned on X_{t0} = x is normal with
//
//	mean = Phi1^Δ·x + Phi0·(1−Phi1^Δ)/(1−Phi1)
//	var  = Sigma²·(1−Phi1^{2Δ})/(1−Phi1²)
//
// degenerating to the random-walk forms x + Δ·Phi0 and Δ·Sigma² when
// Phi1 = 1.
type AR1 struct {
	Phi0  float64
	Phi1  float64
	Sigma float64
	Init  int

	pows deltaMemo[float64] // pows[d] = Phi1^(d+1)
}

// FromFit builds an AR1 process from a fitted model, starting at the
// model's stationary mean.
func FromFit(f stats.AR1Fit) *AR1 {
	init := 0
	// Exact float comparison, a unit-root test: Phi1 is exactly 1 only when set from the literal by the random-walk constructors
	if f.Phi1 != 1 {
		init = int(math.Round(f.StationaryMean()))
	}
	return &AR1{Phi0: f.Phi0, Phi1: f.Phi1, Sigma: f.Sigma, Init: init}
}

// Forecast implements Process.
func (a *AR1) Forecast(h *History, delta int) dist.PMF {
	checkDelta(delta)
	mean, sd := a.ForecastNormal(h.LastOr(a.Init), delta)
	return dist.Normal(mean, sd, 1e-9)
}

// ForecastNormal implements NormalForecaster.
func (a *AR1) ForecastNormal(last int, delta int) (mean, sd float64) {
	// Exact float comparison, a unit-root test: Phi1 is exactly 1 only when set from the literal by the random-walk constructors
	if a.Phi1 == 1 {
		return float64(last) + float64(delta)*a.Phi0, a.Sigma * math.Sqrt(float64(delta))
	}
	checkDelta(delta)
	pd := a.pows.get(delta, func(built []float64) float64 { return math.Pow(a.Phi1, float64(len(built)+1)) })
	mean = pd*float64(last) + a.Phi0*(1-pd)/(1-a.Phi1)
	v := a.Sigma * a.Sigma * (1 - pd*pd) / (1 - a.Phi1*a.Phi1)
	return mean, math.Sqrt(v)
}

// Generate implements Process. As with GaussianWalk, the latent state stays
// in floating point; only the emitted values are rounded.
func (a *AR1) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	x := float64(a.Init)
	for t := range out {
		x = a.Phi0 + a.Phi1*x + a.Sigma*rng.NormFloat64()
		out[t] = int(math.Round(x))
	}
	return out
}

// Independent implements Process.
func (a *AR1) Independent() bool { return false }

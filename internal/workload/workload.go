// Package workload defines the paper's experiment configurations: the
// synthetic joining workloads TOWER, ROOF, FLOOR (linear trends with bounded
// normal or uniform noise, R lagging one step behind S) and WALK (two
// independent Gaussian random walks), plus the REAL caching workload (a
// Melbourne-temperature-like AR(1) reference stream joined with a synthetic
// energy-consumption relation keyed by 0.1 °C buckets).
//
// The real Melbourne data set (StatSci.org) is not redistributable here;
// REAL instead samples the AR(1) model the paper itself fits to that data
// (X_t = 0.72·X_{t-1} + 5.59 + Y_t, σ = 4.22) and re-runs the paper's MLE
// pipeline on the synthetic series — see DESIGN.md for the substitution
// note.
package workload

import (
	"fmt"
	"math"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// TrendSpec parameterizes a linear-trend joining workload. The zero value is
// not useful; start from one of Tower, Roof, Floor and tweak.
type TrendSpec struct {
	Name string
	// Lag is how many steps stream R lags behind stream S (paper default 1).
	Lag int
	// RBound and SBound bound the noise supports: [-RBound, RBound] for R
	// and [-SBound, SBound] for S (paper defaults 10 and 15).
	RBound, SBound int
	// RSigma and SSigma are the bounded-normal noise standard deviations; a
	// zero sigma selects bounded uniform noise (the FLOOR configuration).
	RSigma, SSigma float64
}

// Tower returns the TOWER configuration: sharply peaked normal noise
// (σ_R = 1, σ_S = 2), the most predictable workload.
func Tower() TrendSpec {
	return TrendSpec{Name: "TOWER", Lag: 1, RBound: 10, SBound: 15, RSigma: 1, SSigma: 2}
}

// Roof returns the ROOF configuration: wider normal noise (σ_R = 3.3,
// σ_S = 5).
func Roof() TrendSpec {
	return TrendSpec{Name: "ROOF", Lag: 1, RBound: 10, SBound: 15, RSigma: 3.3, SSigma: 5}
}

// Floor returns the FLOOR configuration: bounded uniform noise.
func Floor() TrendSpec {
	return TrendSpec{Name: "FLOOR", Lag: 1, RBound: 10, SBound: 15}
}

// Join materializes the joining workload: stream models, the LIFE/RAND/PROB
// pseudo-window lifetime estimator, and HEEB's a-priori lifetime estimate.
func (ts TrendSpec) Join() JoinWorkload {
	noise := func(sigma float64, bound int) dist.PMF {
		if sigma == 0 {
			return dist.NewUniform(-bound, bound)
		}
		return dist.BoundedNormal(sigma, bound)
	}
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -ts.Lag, Noise: noise(ts.RSigma, ts.RBound)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: noise(ts.SSigma, ts.SBound)},
	}
	// A tuple stays joinable while its value remains inside the partner's
	// moving noise window — the bound doubles as the paper's sliding window
	// for LIFE and the window-aware RAND and PROB.
	lifetime := func(now int, tp join.Tuple) int {
		if tp.Stream == core.StreamR { // R tuple joins S: window center f_S(now) = now
			return tp.Value + ts.SBound - now
		}
		// S tuple joins R: window center f_R(now) = now - Lag.
		return tp.Value + ts.RBound - (now - ts.Lag)
	}
	// HEEB's lifetime estimate: FLOOR uses (w_R + w_S)/2 (Section 5.3);
	// TOWER/ROOF use the time for the trend to advance twice the (mean)
	// noise standard deviation (Section 5.4).
	est := float64(ts.RBound+ts.SBound) / 2
	if ts.RSigma > 0 {
		est = ts.RSigma + ts.SSigma // 2 × mean of the two sigmas
	}
	return JoinWorkload{
		Name:             ts.Name,
		Procs:            procs,
		Lifetime:         lifetime,
		LifetimeEstimate: est,
	}
}

// Walk returns the WALK configuration: two independent Gaussian random walks
// with unit-variance zero-mean steps. There is no pseudo-window, so LIFE is
// not applicable (Section 6.2); HEEB sets α to the cache size and scores
// exactly: a walk's forecasts move with its last observation, so the forecast
// window sums each distance from it once (Theorem 5(2) without the
// interpolated h1 curve).
func Walk() JoinWorkload {
	return JoinWorkload{
		Name: "WALK",
		Procs: [2]process.Process{
			&process.GaussianWalk{Drift: 0, Sigma: 1, Init: 0},
			&process.GaussianWalk{Drift: 0, Sigma: 1, Init: 0},
		},
	}
}

// JoinWorkload bundles everything a joining experiment needs.
type JoinWorkload struct {
	Name  string
	Procs [2]process.Process
	// Lifetime is the pseudo-window estimator for LIFE and window-aware
	// RAND/PROB; nil when no window exists (WALK).
	Lifetime policy.Lifetime
	// LifetimeEstimate seeds HEEB's α (0 means "use the cache size").
	LifetimeEstimate float64
}

// Generate samples both streams for one run.
func (w JoinWorkload) Generate(rng *stats.RNG, n int) (r, s []int) {
	return w.Procs[0].Generate(rng.Split(), n), w.Procs[1].Generate(rng.Split(), n)
}

// HEEBPolicy builds the workload's HEEB policy instance.
func (w JoinWorkload) HEEBPolicy() *policy.HEEB {
	return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: w.LifetimeEstimate})
}

// RealSpec parameterizes the REAL caching workload.
type RealSpec struct {
	// Days is the series length (paper: 10 years of daily data = 3650).
	Days int
	// Phi0, Phi1, Sigma are the generating AR(1) parameters in °C (paper's
	// fit: 5.59, 0.72, 4.22).
	Phi0, Phi1, Sigma float64
	// Scale converts degrees to integer buckets (paper granularity 0.1 °C →
	// scale 10).
	Scale int
	// SeasonalAmp adds an annual sinusoid of this amplitude (°C) on top of
	// the AR(1) component, making the series Melbourne-like in shape rather
	// than only in autocorrelation; 0 disables it.
	SeasonalAmp float64
	// SeasonalPeriod is the cycle length in days (0 = 365).
	SeasonalPeriod int
}

// Real returns the paper's REAL configuration.
func Real() RealSpec {
	return RealSpec{Days: 3650, Phi0: 5.59, Phi1: 0.72, Sigma: 4.22, Scale: 10}
}

// RealSeasonal returns the REAL configuration with a ±4 °C annual cycle.
// The fitting pipeline still uses a plain AR(1) model — exactly what the
// paper's offline MLE would produce on such data — so this variant stresses
// HEEB's robustness to model misspecification.
func RealSeasonal() RealSpec {
	s := Real()
	s.SeasonalAmp = 4
	return s
}

// RealWorkload is a materialized caching experiment: the reference sequence
// (temperature buckets) and the AR(1) model re-fitted from it with the
// paper's offline MLE procedure.
type RealWorkload struct {
	Name string
	// Refs is the reference sequence of temperature buckets.
	Refs []int
	// Model is the AR(1) model fitted to Refs by maximum likelihood.
	Model *process.AR1
	// Fit carries the raw fit for reporting.
	Fit stats.AR1Fit
}

// Build generates the synthetic Melbourne-like series and fits the model.
func (rs RealSpec) Build(rng *stats.RNG) (RealWorkload, error) {
	if rs.Days < 10 {
		return RealWorkload{}, fmt.Errorf("workload: Real needs at least 10 days, got %d", rs.Days)
	}
	gen := &process.AR1{
		Phi0:  rs.Phi0 * float64(rs.Scale),
		Phi1:  rs.Phi1,
		Sigma: rs.Sigma * float64(rs.Scale),
		Init:  int(rs.Phi0 / (1 - rs.Phi1) * float64(rs.Scale)),
	}
	refs := gen.Generate(rng, rs.Days)
	if rs.SeasonalAmp != 0 {
		period := rs.SeasonalPeriod
		if period == 0 {
			period = 365
		}
		amp := rs.SeasonalAmp * float64(rs.Scale)
		for t := range refs {
			refs[t] += int(math.Round(amp * math.Sin(2*math.Pi*float64(t)/float64(period))))
		}
	}
	fit, err := stats.FitAR1Int(refs)
	if err != nil {
		return RealWorkload{}, fmt.Errorf("workload: AR(1) fit failed: %w", err)
	}
	model := process.FromFit(fit)
	return RealWorkload{Name: "REAL", Refs: refs, Model: model, Fit: fit}, nil
}

package engine

import (
	"math"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/process"
)

// The PR-4 satellite: every invalid configuration a user can assemble —
// including stream-model parameterizations that previously only panicked
// deep inside a run, when the first forecast was materialized — must come
// back from NewJoin/Config.Validate as an error.
func TestConfigValidateRejectsInvalid(t *testing.T) {
	noise := dist.BoundedNormal(2, 6)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cache-size-zero", Config{CacheSize: 0}},
		{"cache-size-negative", Config{CacheSize: -3}},
		{"window-negative", Config{CacheSize: 4, Window: -1}},
		{"band-negative", Config{CacheSize: 4, Band: -2}},
		// k+Band overflowed in the band probe, which then lost pairs.
		{"band-max-int", Config{CacheSize: 4, Band: math.MaxInt}},
		{"band-near-max-int", Config{CacheSize: 8, Band: math.MaxInt - 10, Seed: 1}},
		{"band-wider-than-the-domain", Config{CacheSize: 4, Band: MaxKey - MinKey + 1}},
		{"gaussian-walk-zero-sigma", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.GaussianWalk{Sigma: 0}, &process.GaussianWalk{Sigma: 1}}}},
		{"gaussian-walk-nan-sigma", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.GaussianWalk{Sigma: math.NaN()}, &process.GaussianWalk{Sigma: 1}}}},
		{"gaussian-walk-inf-drift", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.GaussianWalk{Sigma: 1, Drift: math.Inf(1)}, &process.GaussianWalk{Sigma: 1}}}},
		{"ar1-explosive", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.AR1{Phi1: 1.5, Sigma: 1}, &process.AR1{Phi1: 0.5, Sigma: 1}}}},
		{"ar1-negative-sigma", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.AR1{Phi1: 0.5, Sigma: -1}, &process.AR1{Phi1: 0.5, Sigma: 1}}}},
		{"stationary-nil-dist", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.Stationary{}, &process.Stationary{P: noise}}}},
		{"linear-trend-nil-noise", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.LinearTrend{Slope: 1}, &process.LinearTrend{Slope: 1, Noise: noise}}}},
		{"general-trend-nil-f", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.GeneralTrend{Noise: noise}, &process.LinearTrend{Noise: noise}}}},
		{"random-walk-nil-step", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.RandomWalk{}, &process.RandomWalk{Step: noise}}}},
		{"markov-bad-rows", Config{CacheSize: 4,
			Procs: [2]process.Process{&process.MarkovChain{Lo: 0, P: [][]float64{{0.5, 0.2}, {0.5, 0.5}}, Init: 0},
				&process.Stationary{P: noise}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatal("Validate accepted an invalid configuration")
			}
			if _, err := NewJoin(tc.cfg); err == nil {
				t.Fatal("NewJoin accepted an invalid configuration")
			}
		})
	}
}

func TestConfigValidateAcceptsValid(t *testing.T) {
	noise := dist.BoundedNormal(2, 6)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{CacheSize: 1}},
		{"window-band", Config{CacheSize: 8, Window: 10, Band: 3}},
		{"band-the-domain", Config{CacheSize: 8, Band: MaxKey - MinKey}},
		{"trend-models", Config{CacheSize: 8, Procs: trendProcs()}},
		{"ar1-unit-root", Config{CacheSize: 8,
			Procs: [2]process.Process{&process.AR1{Phi1: 1, Phi0: 0.5, Sigma: 2}, &process.AR1{Phi1: 0.9, Sigma: 2}}}},
		{"deterministic", Config{CacheSize: 8,
			Procs: [2]process.Process{&process.Deterministic{Seq: []int{1, 2}}, &process.Deterministic{}}}},
		{"one-sided-model", Config{CacheSize: 8,
			Procs: [2]process.Process{&process.Stationary{P: noise}, nil}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate rejected a valid configuration: %v", err)
			}
		})
	}
}

package stats

import (
	"errors"
	"math"
)

// AlphaForLifetime inverts the Lexp lifetime model: Lexp(Δt) = e^{-Δt/α}
// predicts an average cached-tuple lifetime of 1/(1−e^{-1/α}), so given an
// observed or estimated mean lifetime m this returns the α whose prediction
// matches. Lifetimes of one step or less map to a very small α.
func AlphaForLifetime(m float64) float64 {
	if m <= 1 {
		return 1e-3
	}
	// Log1p keeps the inversion stable for very long lifetimes, where
	// 1 - 1/m would round to exactly 1.
	return -1 / math.Log1p(-1/m)
}

// LifetimeTracker observes how long tuples actually survive in the cache and
// maintains an exponentially-weighted mean lifetime. The paper lists
// adapting α from the observed lifetime as future work; HEEB's AdaptiveAlpha
// option is built on this tracker.
//
// The zero value is not ready: use NewLifetimeTracker.
type LifetimeTracker struct {
	decay float64
	mean  float64
	n     int
}

// NewLifetimeTracker returns a tracker whose running mean gives recent
// evictions weight decay ∈ (0, 1]; decay 1 reduces to a plain mean over a
// growing window approximation. Typical decay: 0.05.
func NewLifetimeTracker(decay float64) *LifetimeTracker {
	if decay <= 0 || decay > 1 {
		panic("stats: LifetimeTracker decay must be in (0, 1]")
	}
	return &LifetimeTracker{decay: decay}
}

// Observe records that a tuple inserted at time in was evicted at time out.
func (lt *LifetimeTracker) Observe(in, out int) {
	life := float64(out - in)
	if life < 1 {
		life = 1
	}
	lt.n++
	if lt.n == 1 {
		lt.mean = life
		return
	}
	lt.mean += lt.decay * (life - lt.mean)
}

// N returns the number of observed evictions.
func (lt *LifetimeTracker) N() int { return lt.n }

// MeanLifetime returns the tracked mean lifetime, or fallback before any
// eviction has been observed.
func (lt *LifetimeTracker) MeanLifetime(fallback float64) float64 {
	if lt.n == 0 {
		return fallback
	}
	return lt.mean
}

// Alpha returns the α matching the tracked lifetime, or the α matching
// fallbackLifetime before any observation.
func (lt *LifetimeTracker) Alpha(fallbackLifetime float64) float64 {
	return AlphaForLifetime(lt.MeanLifetime(fallbackLifetime))
}

// State returns the tracker's internal state (decay, running mean, count) for
// checkpointing; Restore is its inverse.
func (lt *LifetimeTracker) State() (decay, mean float64, n int) {
	return lt.decay, lt.mean, lt.n
}

// Restore overwrites the tracker with a previously captured State. The decay
// must satisfy the constructor's contract, and the mean is a finite
// lifetime; on error the tracker is unchanged.
func (lt *LifetimeTracker) Restore(decay, mean float64, n int) error {
	if !(decay > 0 && decay <= 1) {
		return errors.New("stats: LifetimeTracker decay must be in (0, 1]")
	}
	if n < 0 {
		return errors.New("stats: LifetimeTracker count must be >= 0")
	}
	if !(mean >= 0) || math.IsInf(mean, 0) {
		return errors.New("stats: LifetimeTracker mean must be finite and >= 0")
	}
	lt.decay, lt.mean, lt.n = decay, mean, n
	return nil
}

// Package stats provides the statistical substrate for the stream-join
// framework: seeded random number generation, running summaries, time-series
// diagnostics, AR(1) maximum-likelihood fitting, and the cached-tuple
// lifetime tracker that drives adaptive choices of HEEB's α parameter.
package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
)

// RNG is a deterministic random source. Every experiment in this module
// threads an explicit RNG so runs are reproducible from a seed. The
// underlying PCG state is serializable (MarshalBinary/UnmarshalBinary), which
// is what lets an engine checkpoint capture a mid-run generator and resume it
// bit-for-bit: rand/v2's Rand carries no buffered state of its own, so the
// PCG words are the whole story.
type RNG struct {
	//lint:ignore snapcomplete rand.Rand buffers nothing; the PCG words are the whole state and UnmarshalBinary rebuilds r around the restored source
	r   *rand.Rand
	pcg *rand.PCG
}

// NewRNG returns a PCG-backed source seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{r: rand.New(pcg), pcg: pcg}
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform integer in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Sample draws k distinct integers from [0, n), every k-subset equally
// likely, into dst[:k] (grown only when cap(dst) < k) and returns it; the
// order within the result is unspecified. It is Floyd's algorithm: exactly k
// IntN draws — with bounds n−k+1, …, n, in that order — against Perm's n−1,
// and no allocation once dst has the capacity. Membership is a scan of the
// indices drawn so far, so the cost is O(k²) compares: meant for k ≪ n, the
// few victims of one replacement decision. It panics unless 0 <= k <= n.
func (g *RNG) Sample(n, k int, dst []int) []int {
	if k < 0 || k > n {
		panic("stats: Sample needs 0 <= k <= n")
	}
	dst = dst[:0]
	for top := n - k; top < n; top++ {
		// top is not among the earlier picks (all < top), so it can stand in
		// for a repeated draw; Floyd's argument makes the subset uniform.
		if pick := g.r.IntN(top + 1); slices.Contains(dst, pick) {
			dst = append(dst, top)
		} else {
			dst = append(dst, pick)
		}
	}
	return dst
}

// Split derives an independent child generator. Multi-run experiments give
// each run a split so adding a policy never perturbs another policy's data.
func (g *RNG) Split() *RNG {
	pcg := rand.NewPCG(g.r.Uint64(), g.r.Uint64())
	return &RNG{r: rand.New(pcg), pcg: pcg}
}

// MarshalBinary implements encoding.BinaryMarshaler by serializing the
// underlying PCG state.
func (g *RNG) MarshalBinary() ([]byte, error) {
	if g.pcg == nil {
		return nil, errors.New("stats: RNG has no serializable source")
	}
	return g.pcg.MarshalBinary()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: the generator
// resumes exactly where the marshaled one stopped.
func (g *RNG) UnmarshalBinary(data []byte) error {
	pcg := rand.NewPCG(0, 0)
	if err := pcg.UnmarshalBinary(data); err != nil {
		return err
	}
	g.pcg = pcg
	g.r = rand.New(pcg)
	return nil
}

// Summary accumulates count, mean and variance online (Welford's method).
// The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 with no observations).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no observations).
func (s *Summary) Max() float64 { return s.max }

// RelStdDev returns the coefficient of variation, which the experiment
// harness reports to mirror the paper's "variances under 5%" observation.
func (s *Summary) RelStdDev() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.StdDev() / math.Abs(s.mean)
}

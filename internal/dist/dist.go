// Package dist provides discrete probability mass functions over the
// integers, together with the operations the stream models in this module
// need: shifting, convolution and sampling.
//
// All join-attribute values in the paper are discrete, so every distribution
// here is integer-valued with finite support. A PMF reports an inclusive
// support window [Lo, Hi] outside of which Prob is exactly zero; inside the
// window Prob may still be zero for individual points.
package dist

import "fmt"

// PMF is a probability mass function over the integers with finite support.
//
// Implementations must be immutable after construction: the stream models
// share PMFs freely across goroutines and across simulation steps.
type PMF interface {
	// Prob returns Pr{X = v}. It is zero outside [Support()].
	Prob(v int) float64
	// Support returns the inclusive interval outside of which Prob is zero.
	Support() (lo, hi int)
}

// Sampler is implemented by PMFs that can draw variates directly. PMFs that
// do not implement Sampler can be sampled through SampleInverse.
type Sampler interface {
	Sample(u float64) int
}

// Mean returns the expected value of p.
func Mean(p PMF) float64 {
	lo, hi := p.Support()
	var m float64
	for v := lo; v <= hi; v++ {
		m += float64(v) * p.Prob(v)
	}
	return m
}

// Variance returns the variance of p.
func Variance(p PMF) float64 {
	lo, hi := p.Support()
	m := Mean(p)
	var s float64
	for v := lo; v <= hi; v++ {
		d := float64(v) - m
		s += d * d * p.Prob(v)
	}
	return s
}

// TotalMass sums Prob over the support. A well-formed PMF returns a value
// within rounding error of 1; the tests use this as an invariant.
func TotalMass(p PMF) float64 {
	lo, hi := p.Support()
	var s float64
	for v := lo; v <= hi; v++ {
		s += p.Prob(v)
	}
	return s
}

// SampleInverse draws a variate from p by inverse-CDF search using the
// uniform variate u in [0, 1). It works for any PMF; Table-backed PMFs offer
// a faster direct Sampler.
func SampleInverse(p PMF, u float64) int {
	lo, hi := p.Support()
	var c float64
	for v := lo; v <= hi; v++ {
		c += p.Prob(v)
		if u < c {
			return v
		}
	}
	return hi
}

// Sample draws from p using u in [0, 1), preferring the PMF's own Sampler.
func Sample(p PMF, u float64) int { return SamplerOf(p)(u) }

// SamplerOf returns the draw Sample makes from p, resolved once: p's own
// Sample, or SampleInverse over p. A loop drawing many variates from one PMF
// takes it before the loop.
func SamplerOf(p PMF) func(u float64) int {
	if s, ok := p.(Sampler); ok {
		return s.Sample
	}
	return func(u float64) int { return SampleInverse(p, u) }
}

// DotProduct returns Σ_v a.Prob(v)·b.Prob(v), the probability that two
// independent draws from a and b are equal. FlowExpect uses this to weight
// arcs out of undetermined nodes.
func DotProduct(a, b PMF) float64 {
	alo, ahi := a.Support()
	blo, bhi := b.Support()
	lo, hi := max(alo, blo), min(ahi, bhi)
	var s float64
	for v := lo; v <= hi; v++ {
		s += a.Prob(v) * b.Prob(v)
	}
	return s
}

// validateInterval panics if lo > hi; constructors use it to reject
// malformed supports early rather than producing silently-empty PMFs.
func validateInterval(lo, hi int, what string) {
	if lo > hi {
		panic(fmt.Sprintf("dist: %s has empty support [%d, %d]", what, lo, hi))
	}
}

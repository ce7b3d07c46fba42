package dist

import "math"

// PointMass is the degenerate distribution concentrated at V. Deterministic
// (offline) streams forecast with point masses.
type PointMass struct{ V int }

// NewPointMass returns the distribution with all mass at v.
func NewPointMass(v int) PointMass { return PointMass{V: v} }

// Prob implements PMF.
func (p PointMass) Prob(v int) float64 {
	if v == p.V {
		return 1
	}
	return 0
}

// Support implements PMF.
func (p PointMass) Support() (int, int) { return p.V, p.V }

// Sample implements Sampler.
func (p PointMass) Sample(float64) int { return p.V }

// Uniform is the discrete uniform distribution over the inclusive integer
// interval [Lo, Hi]; the FLOOR workload uses bounded uniform noise.
type Uniform struct{ Lo, Hi int }

// NewUniform returns the uniform distribution on [lo, hi].
func NewUniform(lo, hi int) Uniform {
	validateInterval(lo, hi, "Uniform")
	return Uniform{Lo: lo, Hi: hi}
}

// Prob implements PMF.
func (u Uniform) Prob(v int) float64 {
	if v < u.Lo || v > u.Hi {
		return 0
	}
	return 1 / float64(u.Hi-u.Lo+1)
}

// Support implements PMF.
func (u Uniform) Support() (int, int) { return u.Lo, u.Hi }

// Sample implements Sampler.
func (u Uniform) Sample(x float64) int {
	n := u.Hi - u.Lo + 1
	i := int(x * float64(n))
	if i >= n {
		i = n - 1
	}
	return u.Lo + i
}

// Table is an explicit finite PMF: Probs[i] is the probability of value
// Offset+i. Convolutions, empirical histograms and discretized continuous
// distributions all normalize into a Table.
type Table struct {
	Offset int
	Probs  []float64
	cum    []float64 // cumulative sums for O(log n) sampling
}

// NewTable builds a Table from probabilities starting at offset. The weights
// are normalized to sum to one; leading and trailing zeros are trimmed so the
// reported support is tight. NewTable panics if all weights are zero or any
// weight is negative.
func NewTable(offset int, weights []float64) *Table {
	lo, hi := -1, -1
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("dist: NewTable given negative or NaN weight")
		}
		if w > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
		sum += w
	}
	if lo < 0 {
		panic("dist: NewTable given all-zero weights")
	}
	probs := make([]float64, hi-lo+1)
	cum := make([]float64, hi-lo+1)
	var c float64
	for i := range probs {
		probs[i] = weights[lo+i] / sum
		c += probs[i]
		cum[i] = c
	}
	return &Table{Offset: offset + lo, Probs: probs, cum: cum}
}

// Prob implements PMF.
func (t *Table) Prob(v int) float64 {
	i := v - t.Offset
	if i < 0 || i >= len(t.Probs) {
		return 0
	}
	return t.Probs[i]
}

// Support implements PMF.
func (t *Table) Support() (int, int) { return t.Offset, t.Offset + len(t.Probs) - 1 }

// Sample implements Sampler by binary search over the cumulative table.
func (t *Table) Sample(u float64) int {
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return t.Offset + lo
}

// BoundedNormal is a zero-mean normal distribution with standard deviation
// Sigma, truncated to [-Bound, Bound], discretized at the integers and
// renormalized. The TOWER and ROOF workloads use it as their noise term, and
// random-walk steps and AR(1) innovations discretize through it as well.
//
// The mass at integer v is proportional to ∫_{v-1/2}^{v+1/2} φ(x/σ)/σ dx,
// computed with the error function.
func BoundedNormal(sigma float64, bound int) *Table {
	if sigma <= 0 {
		panic("dist: BoundedNormal requires sigma > 0")
	}
	validateInterval(-bound, bound, "BoundedNormal")
	w := make([]float64, 2*bound+1)
	for v := -bound; v <= bound; v++ {
		a := (float64(v) - 0.5) / (sigma * math.Sqrt2)
		b := (float64(v) + 0.5) / (sigma * math.Sqrt2)
		w[v+bound] = 0.5 * (math.Erf(b) - math.Erf(a))
	}
	return NewTable(-bound, w)
}

// forecastTailEps is the tail cut every stream model forecasts with, and
// forecastTailZ its invTail, computed once: the bisection is 80 erfc calls,
// several times the cost of the table it sizes.
const forecastTailEps = 1e-9

var forecastTailZ = invTail(forecastTailEps)

// Normal is an unbounded discretized normal with the given mean and standard
// deviation, truncated at tails mass below tailEps on each side. AR(1) and
// random-walk multi-step forecasts use it as the closed-form marginal.
func Normal(mean, sigma, tailEps float64) *Table {
	if sigma <= 0 {
		panic("dist: Normal requires sigma > 0")
	}
	if tailEps <= 0 {
		tailEps = forecastTailEps
	}
	z := forecastTailZ
	//lint:ignore floateq memo-key check: every model passes the constant verbatim
	if tailEps != forecastTailEps {
		z = invTail(tailEps)
	}
	// Half-width covering all but tailEps of each tail.
	half := int(math.Ceil(sigma*z)) + 1
	center := int(math.Round(mean))
	w := make([]float64, 2*half+1)
	// Cell i is [v−½, v+½) for v = center−half+i; its upper edge is the next
	// cell's lower edge, exactly, so each edge's erf is taken once.
	edge := func(v int) float64 { return math.Erf((float64(v) - 0.5 - mean) / (sigma * math.Sqrt2)) }
	lo := edge(center - half)
	for i := range w {
		hi := edge(center - half + i + 1)
		w[i] = 0.5 * (hi - lo)
		lo = hi
	}
	return NewTable(center-half, w)
}

// invTail returns z such that the standard normal upper-tail mass beyond z is
// approximately eps, via bisection on erfc.
func invTail(eps float64) float64 {
	lo, hi := 0.0, 40.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(mid/math.Sqrt2) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// NormalProb returns the discretized-normal mass at integer v for the given
// mean and standard deviation, without materializing a Table. HEEB's
// closed-form AR(1)/random-walk sums use this in their inner loop.
func NormalProb(v int, mean, sigma float64) float64 {
	a := (float64(v) - 0.5 - mean) / (sigma * math.Sqrt2)
	b := (float64(v) + 0.5 - mean) / (sigma * math.Sqrt2)
	return 0.5 * (math.Erf(b) - math.Erf(a))
}

// Empirical builds a Table from observed integer values, i.e. the empirical
// frequency histogram. The PROB and LIFE heuristics estimate partner-stream
// join probabilities from it. Empirical panics on an empty sample.
func Empirical(values []int) *Table {
	if len(values) == 0 {
		panic("dist: Empirical given no values")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	w := make([]float64, hi-lo+1)
	for _, v := range values {
		w[v-lo]++
	}
	return NewTable(lo, w)
}

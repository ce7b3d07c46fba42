package dist

// Shifted is the distribution of X+K where X follows Base. Linear-trend
// streams forecast by shifting their noise PMF to the trend value.
type Shifted struct {
	Base PMF
	K    int
}

// Shift returns the distribution of X+k. Shifts of shifts are collapsed and
// point masses are shifted in place, so forecast chains stay O(1) deep.
func Shift(p PMF, k int) PMF {
	if k == 0 {
		return p
	}
	switch q := p.(type) {
	case Shifted:
		return Shift(q.Base, q.K+k)
	case PointMass:
		return PointMass{V: q.V + k}
	case Uniform:
		return Uniform{Lo: q.Lo + k, Hi: q.Hi + k}
	}
	return Shifted{Base: p, K: k}
}

// Prob implements PMF.
func (s Shifted) Prob(v int) float64 { return s.Base.Prob(v - s.K) }

// Support implements PMF.
func (s Shifted) Support() (int, int) {
	lo, hi := s.Base.Support()
	return lo + s.K, hi + s.K
}

// Sample implements Sampler.
func (s Shifted) Sample(u float64) int { return Sample(s.Base, u) + s.K }

// Convolve returns the distribution of X+Y for independent X ~ a, Y ~ b.
// Random-walk Δ-step forecasts with non-normal steps fold their step
// distribution with it.
func Convolve(a, b PMF) *Table {
	alo, ahi := a.Support()
	blo, bhi := b.Support()
	w := make([]float64, (ahi-alo)+(bhi-blo)+1)
	for x := alo; x <= ahi; x++ {
		pa := a.Prob(x)
		if pa == 0 {
			continue
		}
		for y := blo; y <= bhi; y++ {
			pb := b.Prob(y)
			if pb != 0 {
				w[(x-alo)+(y-blo)] += pa * pb
			}
		}
	}
	return NewTable(alo+blo, w)
}

// Mixture is a convex combination of component PMFs. Tests build mixed
// arrival distributions with it; no model forecasts one.
type Mixture struct {
	Components []PMF
	Weights    []float64
	lo, hi     int
}

// NewMixture builds a mixture; weights are normalized and must be
// non-negative with positive sum, with one weight per component.
func NewMixture(components []PMF, weights []float64) *Mixture {
	if len(components) == 0 || len(components) != len(weights) {
		panic("dist: NewMixture requires matching non-empty components and weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("dist: NewMixture given negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("dist: NewMixture weights sum to zero")
	}
	m := &Mixture{Components: components, Weights: make([]float64, len(weights))}
	for i, w := range weights {
		m.Weights[i] = w / sum
	}
	m.lo, m.hi = components[0].Support()
	for _, c := range components[1:] {
		lo, hi := c.Support()
		m.lo, m.hi = min(m.lo, lo), max(m.hi, hi)
	}
	return m
}

// Prob implements PMF.
func (m *Mixture) Prob(v int) float64 {
	var s float64
	for i, c := range m.Components {
		s += m.Weights[i] * c.Prob(v)
	}
	return s
}

// Support implements PMF.
func (m *Mixture) Support() (int, int) { return m.lo, m.hi }

// Materialize copies any PMF into a Table, which makes repeated Prob lookups
// and sampling cheap for deeply composed distributions.
func Materialize(p PMF) *Table {
	if t, ok := p.(*Table); ok {
		return t
	}
	lo, hi := p.Support()
	w := make([]float64, hi-lo+1)
	for v := lo; v <= hi; v++ {
		w[v-lo] = p.Prob(v)
	}
	return NewTable(lo, w)
}

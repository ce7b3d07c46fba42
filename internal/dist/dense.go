package dist

// Dense is a PMF laid out for slice kernels: P[i] is the probability of value
// Off+i and everything outside [Off, Off+len(P)-1] is exactly zero. It is a
// view, not a copy — DenseOf shares the probabilities of the PMF it was taken
// from — so moving a distribution along the value axis is a change of Off.
// core.ForecastCache keeps its forecasts in this form so that a HEEB score is
// a loop over two float slices instead of three interface calls per term.
//
// P must not be modified. Unlike Table, a Dense is neither trimmed nor
// renormalized: it reports the probabilities of its source bit for bit.
type Dense struct {
	Off int
	P   []float64
}

// unit is the shared one-cell table behind every PointMass view.
var unit = []float64{1}

// DenseOf returns p as a Dense with the same Prob at every integer. Tables,
// shifted Tables and point masses are viewed in place; any other PMF is
// tabulated over its support.
func DenseOf(p PMF) Dense {
	switch q := p.(type) {
	case Dense:
		return q
	case *Table:
		return Dense{Off: q.Offset, P: q.Probs}
	case PointMass:
		return Dense{Off: q.V, P: unit}
	case Shifted:
		d := DenseOf(q.Base)
		d.Off += q.K
		return d
	}
	lo, hi := p.Support()
	d := Dense{Off: lo, P: make([]float64, hi-lo+1)}
	for i := range d.P {
		d.P[i] = p.Prob(lo + i)
	}
	return d
}

// Prob implements PMF.
func (d Dense) Prob(v int) float64 {
	if i := v - d.Off; uint(i) < uint(len(d.P)) {
		return d.P[i]
	}
	return 0
}

// Support implements PMF.
func (d Dense) Support() (int, int) { return d.Off, d.Off + len(d.P) - 1 }

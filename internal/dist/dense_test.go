package dist

import (
	"math"
	"testing"
)

// DenseOf must report its source's probabilities bit for bit at every
// integer, in and around the support, whether it views or tabulates.
func TestDenseOfMatchesSource(t *testing.T) {
	table := BoundedNormal(2.5, 7)
	for name, p := range map[string]PMF{
		"table":          table,
		"shifted-table":  Shift(table, -13),
		"point":          NewPointMass(4),
		"shifted-point":  Shift(NewPointMass(4), 9),
		"uniform":        NewUniform(-3, 5),
		"mixture":        NewMixture([]PMF{NewUniform(0, 6), Shift(table, 2)}, []float64{1, 3}),
		"shifted-other":  Shifted{Base: NewMixture([]PMF{NewUniform(0, 2)}, []float64{1}), K: 5},
		"dense":          Dense{Off: 3, P: []float64{0.25, 0, 0.75}},
		"shifted-nested": Shifted{Base: Shifted{Base: table, K: 2}, K: 3},
	} {
		d := DenseOf(p)
		lo, hi := p.Support()
		if dlo, dhi := d.Support(); dlo != lo || dhi != hi {
			t.Errorf("%s: support [%d, %d], want [%d, %d]", name, dlo, dhi, lo, hi)
		}
		for v := lo - 3; v <= hi+3; v++ {
			if d.Prob(v) != p.Prob(v) {
				t.Errorf("%s: Prob(%d) = %v, want %v", name, v, d.Prob(v), p.Prob(v))
			}
		}
	}
	if d := DenseOf(Shift(table, 4)); &d.P[0] != &table.Probs[0] {
		t.Error("a shifted Table must be viewed in place, not copied")
	}
}

// normalSeed is the discretization Normal started from: both edges of every
// cell through their own erf, the tail cut bisected per call.
func normalSeed(mean, sigma, tailEps float64) *Table {
	half := int(math.Ceil(sigma*invTail(tailEps))) + 1
	center := int(math.Round(mean))
	w := make([]float64, 2*half+1)
	for i := range w {
		v := center - half + i
		a := (float64(v) - 0.5 - mean) / (sigma * math.Sqrt2)
		b := (float64(v) + 0.5 - mean) / (sigma * math.Sqrt2)
		w[i] = 0.5 * (math.Erf(b) - math.Erf(a))
	}
	return NewTable(center-half, w)
}

func TestNormalBitIdenticalToSeedForm(t *testing.T) {
	for _, mean := range []float64{0, -7, 12.3, 1e6 + 0.49, -0.5} {
		for _, sigma := range []float64{0.3, 1, 4.7, 40} {
			for _, eps := range []float64{1e-9, 1e-6} {
				got, want := Normal(mean, sigma, eps), normalSeed(mean, sigma, eps)
				if got.Offset != want.Offset || len(got.Probs) != len(want.Probs) {
					t.Fatalf("N(%v, %v) eps %v: support differs", mean, sigma, eps)
				}
				for i := range want.Probs {
					if got.Probs[i] != want.Probs[i] {
						t.Fatalf("N(%v, %v) eps %v cell %d: %v != %v", mean, sigma, eps, i, got.Probs[i], want.Probs[i])
					}
				}
			}
		}
	}
}

package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointMass(t *testing.T) {
	p := NewPointMass(7)
	if got := p.Prob(7); got != 1 {
		t.Fatalf("Prob(7) = %v, want 1", got)
	}
	if got := p.Prob(6); got != 0 {
		t.Fatalf("Prob(6) = %v, want 0", got)
	}
	if lo, hi := p.Support(); lo != 7 || hi != 7 {
		t.Fatalf("Support() = [%d,%d], want [7,7]", lo, hi)
	}
	if got := Mean(p); got != 7 {
		t.Fatalf("Mean = %v, want 7", got)
	}
	if got := Variance(p); got != 0 {
		t.Fatalf("Variance = %v, want 0", got)
	}
	if got := p.Sample(0.3); got != 7 {
		t.Fatalf("Sample = %v, want 7", got)
	}
}

func TestUniformBasics(t *testing.T) {
	u := NewUniform(-10, 10)
	if got := u.Prob(0); !almostEqual(got, 1.0/21, tol) {
		t.Fatalf("Prob(0) = %v, want 1/21", got)
	}
	if got := u.Prob(11); got != 0 {
		t.Fatalf("Prob(11) = %v, want 0", got)
	}
	if got := Mean(u); !almostEqual(got, 0, tol) {
		t.Fatalf("Mean = %v, want 0", got)
	}
	// Var of discrete uniform on [-w, w] with n = 2w+1 points is (n^2-1)/12.
	want := (21.0*21.0 - 1) / 12
	if got := Variance(u); !almostEqual(got, want, 1e-8) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := TotalMass(u); !almostEqual(got, 1, tol) {
		t.Fatalf("TotalMass = %v, want 1", got)
	}
}

func TestUniformPanicsOnEmptySupport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniform(3, 2) did not panic")
		}
	}()
	NewUniform(3, 2)
}

func TestUniformSampleCoversSupport(t *testing.T) {
	u := NewUniform(2, 5)
	seen := map[int]bool{}
	for i := 0; i < 4000; i++ {
		v := u.Sample(float64(i) / 4000)
		if v < 2 || v > 5 {
			t.Fatalf("Sample produced out-of-support value %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Fatalf("Sample covered %d values, want 4", len(seen))
	}
}

func TestTableNormalizesAndTrims(t *testing.T) {
	tab := NewTable(10, []float64{0, 0, 2, 6, 2, 0})
	lo, hi := tab.Support()
	if lo != 12 || hi != 14 {
		t.Fatalf("Support = [%d,%d], want [12,14]", lo, hi)
	}
	if got := tab.Prob(13); !almostEqual(got, 0.6, tol) {
		t.Fatalf("Prob(13) = %v, want 0.6", got)
	}
	if got := TotalMass(tab); !almostEqual(got, 1, tol) {
		t.Fatalf("TotalMass = %v, want 1", got)
	}
}

func TestTablePanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"all zero": {0, 0, 0},
		"negative": {0.5, -0.1, 0.6},
		"nan":      {math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%s) did not panic", name)
				}
			}()
			NewTable(0, weights)
		}()
	}
}

func TestTableSampleMatchesInverse(t *testing.T) {
	tab := NewTable(-3, []float64{1, 2, 3, 4})
	for i := 0; i <= 100; i++ {
		u := float64(i) / 101
		if got, want := tab.Sample(u), SampleInverse(tab, u); got != want {
			t.Fatalf("Sample(%v) = %d, SampleInverse = %d", u, got, want)
		}
	}
}

func TestBoundedNormalSymmetryAndMass(t *testing.T) {
	for _, sigma := range []float64{1, 2, 3.3, 5} {
		n := BoundedNormal(sigma, 15)
		if got := TotalMass(n); !almostEqual(got, 1, tol) {
			t.Fatalf("sigma=%v: TotalMass = %v, want 1", sigma, got)
		}
		if got := Mean(n); !almostEqual(got, 0, 1e-9) {
			t.Fatalf("sigma=%v: Mean = %v, want 0", sigma, got)
		}
		for v := 1; v <= 15; v++ {
			if !almostEqual(n.Prob(v), n.Prob(-v), tol) {
				t.Fatalf("sigma=%v: asymmetric at ±%d: %v vs %v", sigma, v, n.Prob(v), n.Prob(-v))
			}
		}
		// Unimodal at zero.
		if n.Prob(0) <= n.Prob(1) {
			t.Fatalf("sigma=%v: mode not at 0", sigma)
		}
	}
}

func TestBoundedNormalSmallSigmaConcentrates(t *testing.T) {
	n := BoundedNormal(1, 10)
	if got := n.Prob(0); got < 0.38 {
		t.Fatalf("Prob(0) = %v, want roughly 0.383 for sigma=1", got)
	}
	if got := n.Prob(9); got > 1e-10 {
		t.Fatalf("Prob(9) = %v, want ~0 for sigma=1", got)
	}
}

func TestNormalMatchesMoments(t *testing.T) {
	n := Normal(3.7, 2.5, 1e-12)
	if got := TotalMass(n); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("TotalMass = %v, want 1", got)
	}
	if got := Mean(n); !almostEqual(got, 3.7, 1e-6) {
		t.Fatalf("Mean = %v, want 3.7", got)
	}
	// Discretization adds 1/12 to the variance (Sheppard's correction).
	if got := Variance(n); !almostEqual(got, 2.5*2.5+1.0/12, 0.01) {
		t.Fatalf("Variance = %v, want ~%v", got, 2.5*2.5+1.0/12)
	}
}

func TestEmpirical(t *testing.T) {
	e := Empirical([]int{3, 3, 3, 5, 5, 9, 3})
	if got := e.Prob(3); !almostEqual(got, 4.0/7, tol) {
		t.Fatalf("Prob(3) = %v, want 4/7", got)
	}
	if got := e.Prob(4); got != 0 {
		t.Fatalf("Prob(4) = %v, want 0", got)
	}
	if got := e.Prob(9); !almostEqual(got, 1.0/7, tol) {
		t.Fatalf("Prob(9) = %v, want 1/7", got)
	}
}

func TestEmpiricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Empirical(nil) did not panic")
		}
	}()
	Empirical(nil)
}

func TestShiftCollapsesAndPreservesMass(t *testing.T) {
	u := NewUniform(0, 4)
	s := Shift(Shift(u, 3), -1)
	if sh, ok := s.(Uniform); !ok || sh.Lo != 2 || sh.Hi != 6 {
		t.Fatalf("Shift of Uniform should stay Uniform on [2,6], got %#v", s)
	}
	n := BoundedNormal(2, 6)
	sn := Shift(Shift(n, 5), 5)
	if sh, ok := sn.(Shifted); !ok || sh.K != 10 {
		t.Fatalf("nested shifts should collapse to K=10, got %#v", sn)
	}
	if got := sn.Prob(10); !almostEqual(got, n.Prob(0), tol) {
		t.Fatalf("shifted Prob(10) = %v, want %v", got, n.Prob(0))
	}
	if got := Mean(sn); !almostEqual(got, 10, 1e-9) {
		t.Fatalf("shifted Mean = %v, want 10", got)
	}
	if got := Shift(u, 0); got != PMF(u) {
		t.Fatalf("Shift by 0 should be identity")
	}
}

func TestShiftPointMass(t *testing.T) {
	p := Shift(NewPointMass(2), 5)
	if pm, ok := p.(PointMass); !ok || pm.V != 7 {
		t.Fatalf("Shift(PointMass(2), 5) = %#v, want PointMass(7)", p)
	}
}

func TestConvolveUniforms(t *testing.T) {
	// Two fair dice: triangular distribution on [2, 12].
	d := NewUniform(1, 6)
	s := Convolve(d, d)
	if lo, hi := s.Support(); lo != 2 || hi != 12 {
		t.Fatalf("Support = [%d,%d], want [2,12]", lo, hi)
	}
	if got := s.Prob(7); !almostEqual(got, 6.0/36, tol) {
		t.Fatalf("Prob(7) = %v, want 6/36", got)
	}
	if got := s.Prob(2); !almostEqual(got, 1.0/36, tol) {
		t.Fatalf("Prob(2) = %v, want 1/36", got)
	}
	if got := TotalMass(s); !almostEqual(got, 1, tol) {
		t.Fatalf("TotalMass = %v, want 1", got)
	}
}

func TestConvolveMeansAdd(t *testing.T) {
	a := NewTable(0, []float64{1, 2, 1})
	b := NewTable(5, []float64{3, 1})
	c := Convolve(a, b)
	if got, want := Mean(c), Mean(a)+Mean(b); !almostEqual(got, want, 1e-9) {
		t.Fatalf("Mean(conv) = %v, want %v", got, want)
	}
	if got, want := Variance(c), Variance(a)+Variance(b); !almostEqual(got, want, 1e-9) {
		t.Fatalf("Var(conv) = %v, want %v", got, want)
	}
}

func TestMixture(t *testing.T) {
	m := NewMixture([]PMF{NewPointMass(0), NewPointMass(10)}, []float64{1, 3})
	if got := m.Prob(0); !almostEqual(got, 0.25, tol) {
		t.Fatalf("Prob(0) = %v, want 0.25", got)
	}
	if got := m.Prob(10); !almostEqual(got, 0.75, tol) {
		t.Fatalf("Prob(10) = %v, want 0.75", got)
	}
	if lo, hi := m.Support(); lo != 0 || hi != 10 {
		t.Fatalf("Support = [%d,%d], want [0,10]", lo, hi)
	}
	if got := Mean(m); !almostEqual(got, 7.5, tol) {
		t.Fatalf("Mean = %v, want 7.5", got)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]PMF{NewPointMass(0)}, []float64{1, 2}) },
		func() { NewMixture([]PMF{NewPointMass(0)}, []float64{-1}) },
		func() { NewMixture([]PMF{NewPointMass(0)}, []float64{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDotProduct(t *testing.T) {
	a := NewUniform(0, 9)
	if got := DotProduct(a, a); !almostEqual(got, 0.1, tol) {
		t.Fatalf("DotProduct(U,U) = %v, want 0.1", got)
	}
	b := NewUniform(5, 14)
	if got := DotProduct(a, b); !almostEqual(got, 0.05, tol) {
		t.Fatalf("DotProduct overlap-half = %v, want 0.05", got)
	}
	c := NewUniform(100, 101)
	if got := DotProduct(a, c); got != 0 {
		t.Fatalf("DotProduct disjoint = %v, want 0", got)
	}
}

func TestMaterialize(t *testing.T) {
	n := Shift(BoundedNormal(2, 8), 100)
	m := Materialize(n)
	lo, hi := n.Support()
	if mlo, mhi := m.Support(); mlo != lo || mhi != hi {
		t.Fatalf("support mismatch: [%d,%d] vs [%d,%d]", mlo, mhi, lo, hi)
	}
	for v := lo; v <= hi; v++ {
		if !almostEqual(m.Prob(v), n.Prob(v), tol) {
			t.Fatalf("Prob(%d) mismatch: %v vs %v", v, m.Prob(v), n.Prob(v))
		}
	}
	if got := Materialize(m); got != m {
		t.Fatal("Materialize of a Table should return it unchanged")
	}
}

func TestSampleInverseExtremes(t *testing.T) {
	tab := NewTable(0, []float64{1, 1})
	if got := SampleInverse(tab, 0); got != 0 {
		t.Fatalf("SampleInverse(0) = %d, want 0", got)
	}
	if got := SampleInverse(tab, 0.999999); got != 1 {
		t.Fatalf("SampleInverse(~1) = %d, want 1", got)
	}
}

// Property: every constructor yields unit total mass, mean within support,
// and CDF reaching 1 at the upper end.
func TestQuickPMFInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		var p PMF
		switch rng.IntN(5) {
		case 0:
			lo := rng.IntN(41) - 20
			p = NewUniform(lo, lo+rng.IntN(30))
		case 1:
			p = BoundedNormal(0.5+rng.Float64()*5, 1+rng.IntN(20))
		case 2:
			w := make([]float64, 1+rng.IntN(15))
			for i := range w {
				w[i] = rng.Float64()
			}
			w[rng.IntN(len(w))] = 1 // ensure not all zero
			p = NewTable(rng.IntN(21)-10, w)
		case 3:
			a := BoundedNormal(1+rng.Float64(), 5)
			b := NewUniform(-3, 3)
			p = Convolve(a, b)
		default:
			p = Shift(BoundedNormal(2, 10), rng.IntN(100)-50)
		}
		if !almostEqual(TotalMass(p), 1, 1e-8) {
			return false
		}
		lo, hi := p.Support()
		m := Mean(p)
		if m < float64(lo)-1e-9 || m > float64(hi)+1e-9 {
			return false
		}
		if Variance(p) < -1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampling via the Table's binary search has the right frequencies.
func TestSampleFrequencies(t *testing.T) {
	tab := NewTable(0, []float64{1, 2, 3, 4})
	rng := rand.New(rand.NewPCG(42, 43))
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[tab.Sample(rng.Float64())]++
	}
	for v := 0; v < 4; v++ {
		want := float64(v+1) / 10
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("freq(%d) = %v, want ~%v", v, got, want)
		}
	}
}

func FuzzNewTable(f *testing.F) {
	f.Add(uint64(1), 4)
	f.Add(uint64(99), 12)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 1 || n > 64 {
			return
		}
		rng := rand.New(rand.NewPCG(seed, 2))
		w := make([]float64, n)
		any := false
		for i := range w {
			if rng.IntN(3) > 0 {
				w[i] = rng.Float64()
				if w[i] > 0 {
					any = true
				}
			}
		}
		if !any {
			return
		}
		tab := NewTable(rng.IntN(21)-10, w)
		if m := TotalMass(tab); math.Abs(m-1) > 1e-9 {
			t.Fatalf("mass = %v", m)
		}
		lo, hi := tab.Support()
		if tab.Prob(lo) <= 0 || tab.Prob(hi) <= 0 {
			t.Fatal("support not tight")
		}
	})
}

func FuzzConvolvePreservesMass(f *testing.F) {
	f.Add(uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, s1, s2 uint64) {
		r1 := rand.New(rand.NewPCG(s1, 5))
		r2 := rand.New(rand.NewPCG(s2, 6))
		mk := func(r *rand.Rand) *Table {
			w := make([]float64, 1+r.IntN(16))
			for i := range w {
				w[i] = r.Float64()
			}
			w[r.IntN(len(w))] += 0.5
			return NewTable(r.IntN(11)-5, w)
		}
		a, b := mk(r1), mk(r2)
		c := Convolve(a, b)
		if m := TotalMass(c); math.Abs(m-1) > 1e-9 {
			t.Fatalf("mass = %v", m)
		}
		if got, want := Mean(c), Mean(a)+Mean(b); math.Abs(got-want) > 1e-6 {
			t.Fatalf("mean %v != %v", got, want)
		}
	})
}

package interp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplineInterpolatesKnotsExactly(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7}
	ys := []float64{1, -2, 0, 5, 3}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := s.At(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Fatalf("At(knot %v) = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestSplineReproducesLine(t *testing.T) {
	// A cubic spline through samples of a line is the line itself.
	xs := Linspace(0, 10, 6)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 10; x += 0.37 {
		if got := s.At(x); math.Abs(got-(3*x-2)) > 1e-9 {
			t.Fatalf("At(%v) = %v, want %v", x, got, 3*x-2)
		}
	}
}

func TestSplineTwoPointsIsLinear(t *testing.T) {
	s, err := NewSpline([]float64{0, 2}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(1); math.Abs(got-3) > 1e-12 {
		t.Fatalf("midpoint = %v, want 3", got)
	}
}

func TestSplineApproximatesSmoothFunction(t *testing.T) {
	xs := Linspace(0, math.Pi, 15)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x)
	}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= math.Pi; x += 0.01 {
		if got := s.At(x); math.Abs(got-math.Sin(x)) > 1e-4 {
			t.Fatalf("At(%v) = %v, want sin = %v", x, got, math.Sin(x))
		}
	}
}

func TestSplineErrors(t *testing.T) {
	if _, err := NewSpline([]float64{0}, []float64{1}); err != ErrInsufficientPoints {
		t.Fatalf("single point: err = %v", err)
	}
	if _, err := NewSpline([]float64{0, 1}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	if _, err := NewSpline([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing abscissae should fail")
	}
	if _, err := NewSpline([]float64{0, 2, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("non-monotone abscissae should fail")
	}
}

func TestSplineExtrapolationContinuity(t *testing.T) {
	s, _ := NewSpline([]float64{0, 1, 2}, []float64{0, 1, 4})
	in := s.At(2)
	out := s.At(2.0001)
	if math.Abs(in-out) > 0.01 {
		t.Fatalf("discontinuity at right boundary: %v vs %v", in, out)
	}
}

func TestGridInterpolatesControlPoints(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 2, 4}
	z := [][]float64{
		{0, 1, 2, 3, 4},
		{1, 3, 5, 7, 9},
		{0, 0, 1, 0, 0},
	}
	g, err := NewGrid(xs, ys, z)
	if err != nil {
		t.Fatal(err)
	}
	for j, y := range ys {
		for i, x := range xs {
			if got := g.At(x, y); math.Abs(got-z[j][i]) > 1e-9 {
				t.Fatalf("At(%v,%v) = %v, want %v", x, y, got, z[j][i])
			}
		}
	}
}

func TestGridReproducesBilinearSurface(t *testing.T) {
	f := func(x, y float64) float64 { return 2*x - 3*y + 0.5*x*y + 1 }
	xs := Linspace(0, 4, 5)
	ys := Linspace(0, 4, 5)
	z := make([][]float64, len(ys))
	for j, y := range ys {
		z[j] = make([]float64, len(xs))
		for i, x := range xs {
			z[j][i] = f(x, y)
		}
	}
	g, err := NewGrid(xs, ys, z)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, meanErr := g.MaxAbsError(f, 33, 33)
	if maxErr > 1e-9 {
		t.Fatalf("maxErr = %v for a bilinear surface", maxErr)
	}
	if meanErr > maxErr {
		t.Fatalf("meanErr %v > maxErr %v", meanErr, maxErr)
	}
}

func TestGridApproximatesGaussianBump(t *testing.T) {
	// A 5x5 control grid — the paper's 25 control points — should capture a
	// smooth bump to a few percent.
	f := func(x, y float64) float64 { return math.Exp(-(x*x + y*y) / 8) }
	xs := Linspace(-4, 4, 5)
	ys := Linspace(-4, 4, 5)
	z := make([][]float64, 5)
	for j, y := range ys {
		z[j] = make([]float64, 5)
		for i, x := range xs {
			z[j][i] = f(x, y)
		}
	}
	g, err := NewGrid(xs, ys, z)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := g.MaxAbsError(f, 41, 41)
	if maxErr > 0.08 {
		t.Fatalf("maxErr = %v, want < 0.08", maxErr)
	}
	// Denser control grids must not be worse.
	xs9 := Linspace(-4, 4, 9)
	ys9 := Linspace(-4, 4, 9)
	z9 := make([][]float64, 9)
	for j, y := range ys9 {
		z9[j] = make([]float64, 9)
		for i, x := range xs9 {
			z9[j][i] = f(x, y)
		}
	}
	g9, _ := NewGrid(xs9, ys9, z9)
	maxErr9, _ := g9.MaxAbsError(f, 41, 41)
	if maxErr9 > maxErr {
		t.Fatalf("9x9 grid error %v worse than 5x5 error %v", maxErr9, maxErr)
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid([]float64{0, 1}, []float64{0}, [][]float64{{1, 2}}); err != ErrInsufficientPoints {
		t.Fatalf("short ys: %v", err)
	}
	if _, err := NewGrid([]float64{0, 1}, []float64{0, 1}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("row count mismatch should fail")
	}
	if _, err := NewGrid([]float64{0, 1}, []float64{0, 1}, [][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("row length mismatch should fail")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace = %v", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Linspace(0,1,1) did not panic")
		}
	}()
	Linspace(0, 1, 1)
}

// Property: splines through random increasing knots hit every knot and stay
// finite between them.
func TestQuickSplineKnotInterpolation(t *testing.T) {
	f := func(seed int64, raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i := range raw {
			xs[i] = float64(i) + math.Abs(math.Mod(raw[i], 0.5))
			ys[i] = math.Mod(raw[i], 100)
			if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
				ys[i] = 0
			}
		}
		s, err := NewSpline(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(s.At(xs[i])-ys[i]) > 1e-6 {
				return false
			}
		}
		mid := s.At((xs[0] + xs[len(xs)-1]) / 2)
		return !math.IsNaN(mid) && !math.IsInf(mid, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGridSectionMatchesAtOnKnots(t *testing.T) {
	xs := Linspace(0, 4, 5)
	ys := Linspace(0, 2, 3)
	z := [][]float64{
		{0, 1, 4, 9, 16},
		{1, 2, 5, 10, 17},
		{4, 5, 8, 13, 20},
	}
	g, err := NewGrid(xs, ys, z)
	if err != nil {
		t.Fatal(err)
	}
	for j, y := range ys {
		sec := g.Section(y)
		for i, x := range xs {
			if got := sec.At(x); math.Abs(got-z[j][i]) > 1e-9 {
				t.Fatalf("Section(%v).At(%v) = %v, want %v", y, x, got, z[j][i])
			}
		}
	}
	// Off-knot: the section tracks At to interpolation accuracy.
	sec := g.Section(0.7)
	for x := 0.0; x <= 4; x += 0.31 {
		if diff := math.Abs(sec.At(x) - g.At(x, 0.7)); diff > 0.05 {
			t.Fatalf("x=%v: section %v vs At %v", x, sec.At(x), g.At(x, 0.7))
		}
	}
}

func TestSplineSerializationRoundTrip(t *testing.T) {
	orig, err := NewSpline([]float64{0, 1, 3, 6}, []float64{2, -1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Spline
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for x := -0.5; x <= 6.5; x += 0.17 {
		if math.Abs(got.At(x)-orig.At(x)) > 1e-12 {
			t.Fatalf("At(%v) mismatch after round trip", x)
		}
	}
	if err := got.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestGridSerializationRoundTrip(t *testing.T) {
	xs := Linspace(0, 3, 4)
	ys := Linspace(0, 2, 3)
	z := [][]float64{{1, 2, 3, 4}, {0, 1, 0, 1}, {5, 4, 3, 2}}
	orig, err := NewGrid(xs, ys, z)
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Grid
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for y := 0.0; y <= 2; y += 0.43 {
		for x := 0.0; x <= 3; x += 0.37 {
			if math.Abs(got.At(x, y)-orig.At(x, y)) > 1e-12 {
				t.Fatalf("At(%v,%v) mismatch after round trip", x, y)
			}
		}
	}
	if err := got.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty payload should fail")
	}
}

// Linspace returns n evenly spaced values covering [a, b] inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("interp: Linspace requires n >= 2")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	return out
}

package core

import (
	"testing"

	"stochstream/internal/process"
)

func TestH1MatchesExactAtIntegers(t *testing.T) {
	w := &process.GaussianWalk{Drift: 0, Sigma: 1}
	l := NewLExp(10)
	h1, err := PrecomputeH1(w, l, -20, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := -20; d <= 20; d++ {
		exact := MarginalH(w, 0, d, l, 0)
		if got := h1.At(0, d); !almostEqual(got, exact, 1e-9) {
			t.Fatalf("h1(%d) = %v, want %v", d, got, exact)
		}
		// Translation invariance (Theorem 5(2)): same difference, any last.
		if got := h1.At(100, 100+d); !almostEqual(got, exact, 1e-9) {
			t.Fatalf("h1 translation broken at d=%d", d)
		}
	}
}

func TestH1ZeroDriftSymmetricAndUnimodal(t *testing.T) {
	// Section 5.5: zero drift with symmetric unimodal steps ranks candidates
	// by distance from the current position.
	w := &process.GaussianWalk{Drift: 0, Sigma: 1}
	h1, err := PrecomputeH1(w, NewLExp(10), -20, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 20; d++ {
		if !almostEqual(h1.At(0, d), h1.At(0, -d), 1e-9) {
			t.Fatalf("asymmetric at ±%d", d)
		}
		if h1.At(0, d) >= h1.At(0, d-1) {
			t.Fatalf("not decreasing in |d| at %d: %v >= %v", d, h1.At(0, d), h1.At(0, d-1))
		}
	}
}

func TestH1DriftShiftsPreferenceRight(t *testing.T) {
	// Figure 6: positive drift makes tuples to the right of the current
	// value more desirable.
	l := NewLExp(10)
	h0, err := PrecomputeH1(&process.GaussianWalk{Drift: 0, Sigma: 1}, l, -20, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := PrecomputeH1(&process.GaussianWalk{Drift: 2, Sigma: 1}, l, -20, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h4, err := PrecomputeH1(&process.GaussianWalk{Drift: 4, Sigma: 1}, l, -20, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	argmax := func(h *H1) int {
		best := h.lo
		for d := h.lo; d <= h.hi; d++ {
			if h.At(0, d) > h.At(0, best) {
				best = d
			}
		}
		return best
	}
	m0, m2, m4 := argmax(h0), argmax(h2), argmax(h4)
	if m0 != 0 {
		t.Fatalf("zero-drift peak at %d, want 0", m0)
	}
	if !(m2 > m0) || !(m4 > m2) {
		t.Fatalf("peaks not ordered with drift: %d, %d, %d", m0, m2, m4)
	}
	// With drift, right-side tuples beat mirror-image left-side tuples.
	if h2.At(0, 4) <= h2.At(0, -4) {
		t.Fatal("drift 2 should prefer +4 over -4")
	}
}

func TestH1ClampsOutsideRange(t *testing.T) {
	w := &process.GaussianWalk{Drift: 0, Sigma: 1}
	h1, err := PrecomputeH1(w, NewLExp(5), -10, 10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h1.At(0, 50); !almostEqual(got, h1.At(0, 10), 1e-12) {
		t.Fatalf("clamp right: %v vs %v", got, h1.At(0, 10))
	}
	if got := h1.At(0, -50); !almostEqual(got, h1.At(0, -10), 1e-12) {
		t.Fatalf("clamp left: %v vs %v", got, h1.At(0, -10))
	}
}

func TestH1Errors(t *testing.T) {
	w := &process.GaussianWalk{Sigma: 1}
	if _, err := PrecomputeH1(w, NewLExp(5), 10, -10, 1, 0); err == nil {
		t.Fatal("inverted range should error")
	}
	// Coarse step still covers the endpoint.
	h1, err := PrecomputeH1(w, NewLExp(5), -10, 10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h1.At(0, 10), MarginalH(w, 0, 10, NewLExp(5), 0); !almostEqual(got, want, 1e-9) {
		t.Fatalf("endpoint not exact under coarse step: %v vs %v", got, want)
	}
}

// The REAL model: h2 surface approximation from a 5x5 control grid should
// track exact recomputation closely (Figure 15 vs 16).
func TestH2ApproximatesREALModel(t *testing.T) {
	// Paper's fitted model scaled by 10 (0.1 °C granularity):
	// X_t = 0.72·X_{t-1} + 55.9 + Y_t, σ = 42.2.
	ar := &process.AR1{Phi0: 55.9, Phi1: 0.72, Sigma: 42.2, Init: 200}
	l := NewLExp(50)
	h2, err := PrecomputeH2(ar, l, 50, 350, 50, 350, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, meanErr := h2.Accuracy(ar, l, 0, 21, 21)
	// The exact surface peaks around 8e-3; the approximation should be
	// within a small fraction of that.
	peak := MarginalH(ar, 200, 200, l, 0)
	if peak <= 0 {
		t.Fatal("degenerate peak")
	}
	if maxErr > 0.25*peak {
		t.Fatalf("maxErr = %v (peak %v)", maxErr, peak)
	}
	if meanErr > 0.05*peak {
		t.Fatalf("meanErr = %v (peak %v)", meanErr, peak)
	}
	// Denser control grids should not be (meaningfully) worse.
	h2d, err := PrecomputeH2(ar, l, 50, 350, 50, 350, 9, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxErrD, _ := h2d.Accuracy(ar, l, 0, 21, 21)
	if maxErrD > maxErr*1.05 {
		t.Fatalf("9x9 grid (%v) worse than 5x5 (%v)", maxErrD, maxErr)
	}
}

func TestH2AtMatchesExactAtControlPoints(t *testing.T) {
	ar := &process.AR1{Phi0: 5, Phi1: 0.6, Sigma: 3, Init: 12}
	l := NewLExp(20)
	h2, err := PrecomputeH2(ar, l, 0, 40, 0, 40, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Control coordinates are 0, 10, 20, 30, 40 on both axes.
	for _, v := range []int{0, 10, 20, 30, 40} {
		for _, x := range []int{0, 10, 20, 30, 40} {
			exact := MarginalH(ar, x, v, l, 0)
			if got := h2.At(x, v); !almostEqual(got, exact, 1e-9) {
				t.Fatalf("h2(%d,%d) = %v, want %v", x, v, got, exact)
			}
		}
	}
}

func TestH2Errors(t *testing.T) {
	ar := &process.AR1{Phi0: 5, Phi1: 0.6, Sigma: 3}
	l := NewLExp(20)
	if _, err := PrecomputeH2(ar, l, 40, 0, 0, 40, 5, 5, 0); err == nil {
		t.Fatal("inverted v range should error")
	}
	if _, err := PrecomputeH2(ar, l, 0, 40, 0, 40, 1, 5, 0); err == nil {
		t.Fatal("1-point grid should error")
	}
}

func TestH2ClampsOutsideDomain(t *testing.T) {
	ar := &process.AR1{Phi0: 5, Phi1: 0.6, Sigma: 3}
	l := NewLExp(20)
	h2, err := PrecomputeH2(ar, l, 0, 40, 0, 40, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h2.At(-100, 20), h2.At(0, 20); !almostEqual(got, want, 1e-12) {
		t.Fatalf("x clamp: %v vs %v", got, want)
	}
	if got, want := h2.At(20, 999), h2.At(20, 40); !almostEqual(got, want, 1e-12) {
		t.Fatalf("v clamp: %v vs %v", got, want)
	}
}

func TestNormalMassDegenerateSD(t *testing.T) {
	if got := normalMass(3, 3.2, 0); got != 1 {
		t.Fatalf("point-mass rounding: %v", got)
	}
	if got := normalMass(4, 3.2, 0); got != 0 {
		t.Fatalf("point-mass miss: %v", got)
	}
}

func TestIntLinspaceDedupes(t *testing.T) {
	got := intLinspace(0, 2, 5) // would be 0, 0.5, 1, 1.5, 2 → rounds with dupes
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
	if got[0] != 0 || got[len(got)-1] != 2 {
		t.Fatalf("endpoints wrong: %v", got)
	}
	if v := intLinspace(0, 100, 5); len(v) != 5 || v[1] != 25 {
		t.Fatalf("wide range: %v", v)
	}
}

func TestH2SectionMatchesAt(t *testing.T) {
	ar := &process.AR1{Phi0: 5, Phi1: 0.6, Sigma: 3, Init: 12}
	l := NewLExp(20)
	h2, err := PrecomputeH2(ar, l, 0, 40, 0, 40, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, last := range []int{0, 10, 17, 40, 99} {
		sec := h2.Section(last)
		for v := -5; v <= 45; v += 3 {
			got := sec(v)
			want := h2.At(last, v)
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			// Row-major vs column-major tensor interpolation agree exactly
			// on the knot lattice and closely off it.
			if diff > 2e-4 {
				t.Fatalf("last=%d v=%d: section %v vs At %v", last, v, got, want)
			}
		}
	}
}

func TestH1RoundTripsThroughBinary(t *testing.T) {
	w := &process.GaussianWalk{Drift: 1, Sigma: 1.5}
	l := NewLExp(8)
	orig, err := PrecomputeH1(w, l, -25, 25, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got H1
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for d := -30; d <= 30; d++ {
		if a, b := orig.At(0, d), got.At(0, d); !almostEqual(a, b, 1e-12) {
			t.Fatalf("d=%d: %v vs %v after round trip", d, a, b)
		}
	}
	if err := got.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

func TestH2RoundTripsThroughBinary(t *testing.T) {
	ar := &process.AR1{Phi0: 5, Phi1: 0.6, Sigma: 3, Init: 12}
	l := NewLExp(20)
	// The surface starts off zero on both axes, so a codec that drops
	// either lower bound reloads a shifted surface.
	orig, err := PrecomputeH2(ar, l, 4, 44, 2, 42, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got H2
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for x := -5; x <= 45; x += 7 {
		for v := -5; v <= 45; v += 7 {
			if a, b := orig.At(x, v), got.At(x, v); !almostEqual(a, b, 1e-12) {
				t.Fatalf("(%d,%d): %v vs %v after round trip", x, v, a, b)
			}
		}
	}
	// Sections work on the reloaded surface too.
	sec := got.Section(12)
	if !almostEqual(sec(20), orig.Section(12)(20), 1e-12) {
		t.Fatal("section mismatch after round trip")
	}
	if err := got.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty payload should fail to decode")
	}
}

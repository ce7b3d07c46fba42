package stats

import (
	"math"
	"testing"
)

func TestFitLinearExactLine(t *testing.T) {
	series := make([]float64, 50)
	for tm := range series {
		series[tm] = 3*float64(tm) - 7
	}
	f := FitLinear(series)
	if math.Abs(f.Slope-3) > 1e-9 || math.Abs(f.Intercept+7) > 1e-9 {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	res := f.Residuals(series)
	for _, r := range res {
		if math.Abs(r) > 1e-9 {
			t.Fatalf("residual %v on exact line", r)
		}
	}
}

func TestFitLinearNoisyLine(t *testing.T) {
	g := NewRNG(8)
	series := make([]float64, 3000)
	for tm := range series {
		series[tm] = 0.5*float64(tm) + 10 + 2*g.NormFloat64()
	}
	f := FitLinear(series)
	if math.Abs(f.Slope-0.5) > 0.005 {
		t.Fatalf("slope = %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestFitLinearFlatSeries(t *testing.T) {
	f := FitLinear([]float64{5, 5, 5, 5})
	if f.Slope != 0 || f.R2 != 0 {
		t.Fatalf("flat fit = %+v", f)
	}
	if g := FitLinear([]float64{1}); g.Slope != 0 {
		t.Fatalf("single point fit = %+v", g)
	}
}

func TestFitLinearWhiteNoiseHasLowR2(t *testing.T) {
	g := NewRNG(9)
	series := make([]float64, 2000)
	for tm := range series {
		series[tm] = g.NormFloat64()
	}
	if f := FitLinear(series); f.R2 > 0.01 {
		t.Fatalf("white noise R2 = %v", f.R2)
	}
}

func TestDiffs(t *testing.T) {
	got := Diffs([]int{3, 5, 4, 10})
	want := []float64{2, -1, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diffs = %v", got)
		}
	}
	if Diffs([]int{1}) != nil {
		t.Fatal("single element should have no diffs")
	}
}

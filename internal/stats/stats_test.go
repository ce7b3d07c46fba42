package stats

import (
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(1)
	c1 := g.Split()
	v1 := c1.Float64()
	// Re-derive: a fresh parent split twice gives the same first child stream.
	g2 := NewRNG(1)
	c1b := g2.Split()
	if c1b.Float64() != v1 {
		t.Fatal("split is not deterministic")
	}
}

// TestRNGFloat64IsRandFloat64: Float64 reads its PCG directly, and every
// value is the one rand/v2's Rand over the same PCG returns — for a fresh
// generator, a split child and a generator restored mid-stream — over 10^6
// draws each.
func TestRNGFloat64IsRandFloat64(t *testing.T) {
	const draws = 1000000
	same := func(name string, g *RNG, ref *rand.Rand) {
		t.Helper()
		for i := 0; i < draws; i++ {
			if got, want := g.Float64(), ref.Float64(); got != want {
				t.Fatalf("%s: draw %d is %v, rand.Rand's %v", name, i, got, want)
			}
		}
	}
	for _, seed := range []uint64{1, 42, math.MaxUint64} {
		ref := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		g := NewRNG(seed)
		same("fresh", g, ref)

		child := g.Split()
		same("split", child, rand.New(rand.NewPCG(ref.Uint64(), ref.Uint64())))

		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var restored RNG
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		same("restored", &restored, ref)
	}
}

func TestRNGIntNRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := g.IntN(10); v < 0 || v >= 10 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := s.RelStdDev(); math.Abs(got-s.StdDev()/5) > 1e-12 {
		t.Fatalf("RelStdDev = %v", got)
	}
}

func TestSummaryEdgeCases(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.RelStdDev() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	s.Add(3)
	if s.Variance() != 0 {
		t.Fatal("single observation variance should be 0")
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		n := 2 + g.IntN(200)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = g.NormFloat64() * 100
			s.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var v float64
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n - 1)
		return math.Abs(s.Mean()-mean) < 1e-8 && math.Abs(s.Variance()-v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitAR1RecoversParameters(t *testing.T) {
	g := NewRNG(11)
	const phi0, phi1, sigma = 5.59, 0.72, 4.22
	x := phi0 / (1 - phi1)
	series := make([]float64, 20000)
	for i := range series {
		x = phi0 + phi1*x + sigma*g.NormFloat64()
		series[i] = x
	}
	fit, err := FitAR1(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Phi1-phi1) > 0.02 {
		t.Fatalf("Phi1 = %v, want ~%v", fit.Phi1, phi1)
	}
	if math.Abs(fit.Phi0-phi0) > 0.5 {
		t.Fatalf("Phi0 = %v, want ~%v", fit.Phi0, phi0)
	}
	if math.Abs(fit.Sigma-sigma) > 0.15 {
		t.Fatalf("Sigma = %v, want ~%v", fit.Sigma, sigma)
	}
	if math.Abs(fit.StationaryMean()-phi0/(1-phi1)) > 1.5 {
		t.Fatalf("StationaryMean = %v", fit.StationaryMean())
	}
	wantSD := sigma / math.Sqrt(1-phi1*phi1)
	if math.Abs(fit.StationaryStdDev()-wantSD) > 0.5 {
		t.Fatalf("StationaryStdDev = %v, want ~%v", fit.StationaryStdDev(), wantSD)
	}
}

func TestFitAR1Errors(t *testing.T) {
	if _, err := FitAR1([]float64{1, 2}); err != ErrShortSeries {
		t.Fatalf("short series: err = %v", err)
	}
	if _, err := FitAR1([]float64{3, 3, 3, 3}); err == nil {
		t.Fatal("constant series should fail")
	}
}

func TestFitAR1IntMatchesFloat(t *testing.T) {
	ints := []int{10, 12, 11, 14, 13, 15, 14, 16, 18, 17, 19, 18}
	fi, err := FitAR1Int(ints)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]float64, len(ints))
	for i, v := range ints {
		fs[i] = float64(v)
	}
	ff, _ := FitAR1(fs)
	if fi != ff {
		t.Fatalf("int fit %+v != float fit %+v", fi, ff)
	}
}

func TestAutocorrelation(t *testing.T) {
	// White noise: lag-1 autocorrelation near 0; AR(1) with phi=0.9: near 0.9.
	g := NewRNG(5)
	white := make([]float64, 5000)
	for i := range white {
		white[i] = g.NormFloat64()
	}
	if r := Autocorrelation(white, 1); math.Abs(r) > 0.05 {
		t.Fatalf("white noise lag-1 autocorr = %v", r)
	}
	ar := make([]float64, 5000)
	x := 0.0
	for i := range ar {
		x = 0.9*x + g.NormFloat64()
		ar[i] = x
	}
	if r := Autocorrelation(ar, 1); math.Abs(r-0.9) > 0.05 {
		t.Fatalf("AR lag-1 autocorr = %v, want ~0.9", r)
	}
	if r := Autocorrelation(ar, 0); math.Abs(r-1) > 1e-12 {
		t.Fatalf("lag-0 autocorr = %v, want 1", r)
	}
	if r := Autocorrelation(ar, -1); r != 0 {
		t.Fatalf("negative lag = %v, want 0", r)
	}
	if r := Autocorrelation([]float64{1, 1, 1}, 1); r != 0 {
		t.Fatalf("constant series autocorr = %v, want 0", r)
	}
}

func TestAlphaLifetimeRoundTrip(t *testing.T) {
	for _, m := range []float64{1.5, 2, 5, 10, 30, 300} {
		alpha := AlphaForLifetime(m)
		if got := LifetimeForAlpha(alpha); math.Abs(got-m) > 1e-9*m {
			t.Fatalf("round trip m=%v: got %v", m, got)
		}
	}
	if a := AlphaForLifetime(0.5); a != 1e-3 {
		t.Fatalf("sub-step lifetime should clamp, got %v", a)
	}
	if l := LifetimeForAlpha(0); l != 1 {
		t.Fatalf("alpha 0 lifetime = %v, want 1", l)
	}
}

func TestAlphaMonotoneInLifetime(t *testing.T) {
	f := func(a, b uint16) bool {
		ma := 1.1 + float64(a)/10
		mb := ma + 0.1 + float64(b)/10
		return AlphaForLifetime(ma) < AlphaForLifetime(mb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLifetimeTracker(t *testing.T) {
	lt := NewLifetimeTracker(0.5)
	if got := lt.MeanLifetime(9); got != 9 {
		t.Fatalf("fallback = %v, want 9", got)
	}
	lt.Observe(0, 10) // life 10
	if got := lt.MeanLifetime(9); got != 10 {
		t.Fatalf("first obs mean = %v, want 10", got)
	}
	lt.Observe(5, 25) // life 20 → mean 15 with decay 0.5
	if got := lt.MeanLifetime(9); math.Abs(got-15) > 1e-12 {
		t.Fatalf("mean = %v, want 15", got)
	}
	if lt.N() != 2 {
		t.Fatalf("N = %d", lt.N())
	}
	// Lifetimes clamp at 1.
	lt2 := NewLifetimeTracker(1)
	lt2.Observe(7, 7)
	if got := lt2.MeanLifetime(0); got != 1 {
		t.Fatalf("clamped lifetime = %v, want 1", got)
	}
	// Alpha passthrough.
	if got, want := lt.Alpha(0), AlphaForLifetime(15); got != want {
		t.Fatalf("Alpha = %v, want %v", got, want)
	}
}

func TestLifetimeTrackerPanics(t *testing.T) {
	for _, d := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v did not panic", d)
				}
			}()
			NewLifetimeTracker(d)
		}()
	}
}

func TestSortedCountsRoundTrip(t *testing.T) {
	m := map[int]int{7: 2, -3: 1, 40: 9, 0: 4}
	c := NewCounts()
	for v, n := range m {
		for range n {
			c.Add(v)
		}
	}
	vals, counts := c.Sorted()
	if !slices.Equal(vals, []int{-3, 0, 7, 40}) || !slices.Equal(counts, []int{1, 4, 2, 9}) {
		t.Fatalf("Sorted = %v, %v", vals, counts)
	}
	back, err := CountsFrom(vals, counts)
	if err != nil || !maps.Equal(back.m, m) || back.lo != c.lo || back.hi != c.hi || back.total != c.total {
		t.Fatalf("CountsFrom = %+v, %v; want %+v", back, err, c)
	}
	if _, err := CountsFrom(vals, counts[:3]); err == nil {
		t.Fatal("CountsFrom accepted 4 values with 3 counts")
	}
}

// TestBandCountMatchesScan: BandCount, total or table read, is the sum of
// the counts in [v−band, v+band] for tables built by Add and by CountsFrom —
// duplicate values in the latter keeping the last count — over bands
// narrower than, as wide as and wider than the values counted.
func TestBandCountMatchesScan(t *testing.T) {
	g := NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		added := NewCounts()
		var vals, counts []int
		for i := g.IntN(40); i > 0; i-- {
			v := g.IntN(60) - 30
			added.Add(v)
			vals, counts = append(vals, v), append(counts, g.IntN(5))
		}
		restored, err := CountsFrom(vals, counts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Counts{added, restored} {
			for v := -40; v <= 40; v++ {
				for _, band := range []int{0, 1, 5, 30, 60, 1 << 40} {
					want := 0
					for k, n := range c.m {
						if k >= v-band && k <= v+band {
							want += n
						}
					}
					if got := c.BandCount(v, band); got != want {
						t.Fatalf("trial %d: BandCount(%d, %d) = %d, scan %d (%+v)", trial, v, band, got, want, c)
					}
				}
			}
		}
	}
}

// LifetimeForAlpha is the forward direction: the mean lifetime Lexp with
// parameter α predicts, 1/(1−e^{-1/α}).
func LifetimeForAlpha(alpha float64) float64 {
	if alpha <= 0 {
		return 1
	}
	return 1 / (1 - math.Exp(-1/alpha))
}

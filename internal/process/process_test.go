package process

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"stochstream/internal/dist"
	"stochstream/internal/stats"
)

func TestDeterministicForecast(t *testing.T) {
	d := &Deterministic{Seq: []int{10, 20, 30}}
	h := NewHistory(10) // t0 = 0
	if got := d.Forecast(h, 1).Prob(20); got != 1 {
		t.Fatalf("Forecast(1).Prob(20) = %v, want 1", got)
	}
	if got := d.Forecast(h, 2).Prob(30); got != 1 {
		t.Fatalf("Forecast(2).Prob(30) = %v, want 1", got)
	}
	// Beyond the end: point mass at NoValue, zero probability everywhere real.
	p := d.Forecast(h, 5)
	if got := p.Prob(10); got != 0 {
		t.Fatalf("past-end Prob(10) = %v, want 0", got)
	}
	if got := p.Prob(NoValue); got != 1 {
		t.Fatalf("past-end Prob(NoValue) = %v, want 1", got)
	}
}

func TestDeterministicGenerate(t *testing.T) {
	d := &Deterministic{Seq: []int{1, 2}}
	got := d.Generate(nil, 4)
	want := []int{1, 2, NoValue, NoValue}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Generate = %v, want %v", got, want)
		}
	}
	if !d.Independent() {
		t.Fatal("Deterministic should report independent")
	}
}

func TestHistory(t *testing.T) {
	h := NewHistory()
	if h.T0() != -1 || h.Len() != 0 {
		t.Fatal("empty history should have T0 = -1")
	}
	h.Append(5)
	h.Append(7)
	if h.T0() != 1 || h.Last() != 7 || h.Len() != 2 {
		t.Fatalf("history state wrong: %+v", h)
	}
	// The count and the last value are the whole state: a history built from
	// the values, one appended to, and one moved there by AppendAt are equal.
	built, jumped := NewHistory(5, 7), NewHistory()
	jumped.AppendAt(1, 7)
	if *built != *h || *jumped != *h {
		t.Fatalf("histories of (5, 7) differ: appended %+v, built %+v, appended at 1 %+v", h, built, jumped)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Last of an empty history did not panic")
		}
	}()
	NewHistory().Last()
}

func TestStationaryForecastIsTimeInvariant(t *testing.T) {
	p := dist.NewUniform(0, 9)
	s := &Stationary{P: p}
	h := NewHistory(3, 4, 5)
	for _, d := range []int{1, 2, 50} {
		if got := s.Forecast(h, d); got != dist.PMF(p) {
			t.Fatalf("Forecast(%d) should be the stationary PMF", d)
		}
	}
	rng := stats.NewRNG(1)
	out := s.Generate(rng, 10000)
	var sum float64
	for _, v := range out {
		if v < 0 || v > 9 {
			t.Fatalf("generated out-of-support value %d", v)
		}
		sum += float64(v)
	}
	if mean := sum / 10000; math.Abs(mean-4.5) > 0.15 {
		t.Fatalf("generated mean = %v, want ~4.5", mean)
	}
}

func TestLinearTrendForecast(t *testing.T) {
	l := &LinearTrend{Slope: 1, Intercept: -1, Noise: dist.NewUniform(-10, 10)}
	h := NewHistory(make([]int, 100)...) // t0 = 99
	f := l.Forecast(h, 1)                // time 100, trend 99
	lo, hi := f.Support()
	if lo != 89 || hi != 109 {
		t.Fatalf("support = [%d,%d], want [89,109]", lo, hi)
	}
	if got := f.Prob(99); math.Abs(got-1.0/21) > 1e-12 {
		t.Fatalf("Prob(trend) = %v, want 1/21", got)
	}
	if got := dist.Mean(l.Forecast(h, 7)); math.Abs(got-105) > 1e-9 {
		t.Fatalf("mean of Forecast(7) = %v, want 105", got)
	}
}

func TestLinearTrendGenerateStaysInBand(t *testing.T) {
	l := &LinearTrend{Slope: 2, Intercept: 5, Noise: dist.BoundedNormal(2, 8)}
	out := l.Generate(stats.NewRNG(2), 500)
	for tm, v := range out {
		trend := 2*tm + 5
		if v < trend-8 || v > trend+8 {
			t.Fatalf("t=%d: value %d outside band around trend %d", tm, v, trend)
		}
	}
}

func TestGeneralTrendMatchesLinear(t *testing.T) {
	noise := dist.NewUniform(-3, 3)
	lin := &LinearTrend{Slope: 3, Intercept: 1, Noise: noise}
	gen := &GeneralTrend{F: func(t int) int { return 3*t + 1 }, Noise: noise}
	h := NewHistory(1, 4, 7)
	for d := 1; d <= 5; d++ {
		a, b := lin.Forecast(h, d), gen.Forecast(h, d)
		alo, ahi := a.Support()
		blo, bhi := b.Support()
		if alo != blo || ahi != bhi {
			t.Fatalf("delta %d: support mismatch", d)
		}
		for v := alo; v <= ahi; v++ {
			if math.Abs(a.Prob(v)-b.Prob(v)) > 1e-12 {
				t.Fatalf("delta %d: Prob(%d) mismatch", d, v)
			}
		}
	}
	outA := lin.Generate(stats.NewRNG(9), 50)
	outB := gen.Generate(stats.NewRNG(9), 50)
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatal("same-seed generation should agree")
		}
	}
}

func TestForecastPanicsOnBadDelta(t *testing.T) {
	s := &Stationary{P: dist.NewUniform(0, 1)}
	defer func() {
		if recover() == nil {
			t.Fatal("Forecast(0) did not panic")
		}
	}()
	s.Forecast(NewHistory(0), 0)
}

func TestRandomWalkForecastMoments(t *testing.T) {
	// ±1 steps: after Δ steps, mean last, variance Δ.
	step := dist.NewTable(-1, []float64{1, 0, 1})
	w := &RandomWalk{Step: step, Init: 0}
	h := NewHistory(0, 2, 4) // last = 4
	for _, d := range []int{1, 2, 5, 10} {
		f := w.Forecast(h, d)
		if got := dist.Mean(f); math.Abs(got-4) > 1e-9 {
			t.Fatalf("delta %d: mean %v, want 4", d, got)
		}
		if got := dist.Variance(f); math.Abs(got-float64(d)) > 1e-9 {
			t.Fatalf("delta %d: variance %v, want %d", d, got, d)
		}
	}
	if w.Independent() {
		t.Fatal("RandomWalk should not report independent")
	}
}

func TestRandomWalkDriftViaStepMean(t *testing.T) {
	// Steps uniform on [1, 3]: drift 2 per step.
	w := &RandomWalk{Step: dist.NewUniform(1, 3), Init: 10}
	h := NewHistory(10)
	f := w.Forecast(h, 4)
	if got := dist.Mean(f); math.Abs(got-18) > 1e-9 {
		t.Fatalf("mean = %v, want 18", got)
	}
	// Empty history falls back to Init.
	f0 := w.Forecast(NewHistory(), 1)
	if got := dist.Mean(f0); math.Abs(got-12) > 1e-9 {
		t.Fatalf("empty-history mean = %v, want 12", got)
	}
}

func TestRandomWalkPowerMemoization(t *testing.T) {
	w := &RandomWalk{Step: dist.NewUniform(-1, 1), Init: 0}
	h := NewHistory(7)
	p5a := w.Forecast(h, 5)
	p5b := w.Forecast(h, 5)
	// Shifted wrappers around the identical memoized table.
	sa, sb := p5a.(dist.Shifted), p5b.(dist.Shifted)
	if sa.Base != sb.Base {
		t.Fatal("convolution powers should be memoized")
	}
	if w.powers.len() != 5 {
		t.Fatalf("expected 5 memoized powers, got %d", w.powers.len())
	}
}

func TestGaussianWalkForecast(t *testing.T) {
	w := &GaussianWalk{Drift: 2, Sigma: 1.5, Init: 0}
	mean, sd := w.ForecastNormal(10, 4)
	if mean != 18 {
		t.Fatalf("mean = %v, want 18", mean)
	}
	if math.Abs(sd-3) > 1e-12 {
		t.Fatalf("sd = %v, want 3", sd)
	}
	f := w.Forecast(NewHistory(10), 4)
	if got := dist.Mean(f); math.Abs(got-18) > 0.01 {
		t.Fatalf("PMF mean = %v, want ~18", got)
	}
	if got := dist.TotalMass(f); math.Abs(got-1) > 1e-6 {
		t.Fatalf("PMF mass = %v", got)
	}
}

func TestGaussianWalkGenerateStatistics(t *testing.T) {
	w := &GaussianWalk{Drift: 0.5, Sigma: 1, Init: 0}
	out := w.Generate(stats.NewRNG(4), 20000)
	// Increments should have mean ~0.5 and variance ~1 (+rounding noise).
	var s stats.Summary
	prev := 0
	for _, v := range out {
		s.Add(float64(v - prev))
		prev = v
	}
	if math.Abs(s.Mean()-0.5) > 0.03 {
		t.Fatalf("increment mean = %v, want ~0.5", s.Mean())
	}
	// Per-step rounding adds two uniform(±1/2) errors to each increment,
	// inflating its variance by ~2/12.
	if want := 1 + 2.0/12; math.Abs(s.Variance()-want) > 0.1 {
		t.Fatalf("increment variance = %v, want ~%v", s.Variance(), want)
	}
}

func TestAR1ForecastConvergesToStationary(t *testing.T) {
	a := &AR1{Phi0: 5.59, Phi1: 0.72, Sigma: 4.22, Init: 20}
	mean1, sd1 := a.ForecastNormal(40, 1)
	if math.Abs(mean1-(0.72*40+5.59)) > 1e-9 {
		t.Fatalf("1-step mean = %v", mean1)
	}
	if math.Abs(sd1-4.22) > 1e-9 {
		t.Fatalf("1-step sd = %v, want 4.22", sd1)
	}
	meanInf, sdInf := a.ForecastNormal(40, 500)
	wantMean := 5.59 / (1 - 0.72)
	wantSD := 4.22 / math.Sqrt(1-0.72*0.72)
	if math.Abs(meanInf-wantMean) > 1e-6 {
		t.Fatalf("long-run mean = %v, want %v", meanInf, wantMean)
	}
	if math.Abs(sdInf-wantSD) > 1e-6 {
		t.Fatalf("long-run sd = %v, want %v", sdInf, wantSD)
	}
}

func TestAR1Phi1OneDegeneratesToWalk(t *testing.T) {
	a := &AR1{Phi0: 2, Phi1: 1, Sigma: 1.5, Init: 0}
	w := &GaussianWalk{Drift: 2, Sigma: 1.5, Init: 0}
	for _, d := range []int{1, 3, 10} {
		am, asd := a.ForecastNormal(7, d)
		wm, wsd := w.ForecastNormal(7, d)
		if am != wm || math.Abs(asd-wsd) > 1e-12 {
			t.Fatalf("delta %d: AR1(phi1=1) (%v,%v) != walk (%v,%v)", d, am, asd, wm, wsd)
		}
	}
}

func TestAR1GenerateMatchesFit(t *testing.T) {
	a := &AR1{Phi0: 5.59, Phi1: 0.72, Sigma: 4.22, Init: 20}
	out := a.Generate(stats.NewRNG(6), 30000)
	fit, err := stats.FitAR1Int(out)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Phi1-0.72) > 0.02 {
		t.Fatalf("refit Phi1 = %v", fit.Phi1)
	}
	if math.Abs(fit.Phi0-5.59) > 0.6 {
		t.Fatalf("refit Phi0 = %v", fit.Phi0)
	}
	// Discretization inflates sigma slightly (rounding noise).
	if math.Abs(fit.Sigma-4.22) > 0.15 {
		t.Fatalf("refit Sigma = %v", fit.Sigma)
	}
}

func TestFromFit(t *testing.T) {
	f := stats.AR1Fit{Phi0: 5.59, Phi1: 0.72, Sigma: 4.22}
	a := FromFit(f)
	if a.Init != 20 { // round(5.59/0.28) = round(19.96)
		t.Fatalf("Init = %d, want 20", a.Init)
	}
	walkFit := stats.AR1Fit{Phi0: 1, Phi1: 1, Sigma: 2}
	if got := FromFit(walkFit).Init; got != 0 {
		t.Fatalf("phi1=1 Init = %d, want 0", got)
	}
}

func TestAR1EmptyHistoryUsesInit(t *testing.T) {
	a := &AR1{Phi0: 0, Phi1: 0.5, Sigma: 1, Init: 100}
	f := a.Forecast(NewHistory(), 1)
	if got := dist.Mean(f); math.Abs(got-50) > 0.05 {
		t.Fatalf("mean = %v, want ~50", got)
	}
}

// Property: for every model, Forecast mass is ~1 and generation is
// deterministic in the seed.
func TestQuickProcessInvariants(t *testing.T) {
	build := func(g *stats.RNG) Process {
		switch g.IntN(5) {
		case 0:
			seq := make([]int, 5+g.IntN(20))
			for i := range seq {
				seq[i] = g.IntN(100)
			}
			return &Deterministic{Seq: seq}
		case 1:
			return &Stationary{P: dist.NewUniform(-5, 5+g.IntN(10))}
		case 2:
			return &LinearTrend{Slope: g.IntN(3), Intercept: g.IntN(10) - 5, Noise: dist.BoundedNormal(1+g.Float64()*3, 10)}
		case 3:
			return &RandomWalk{Step: dist.NewUniform(-2, 2), Init: g.IntN(10)}
		default:
			return &AR1{Phi0: g.Float64() * 5, Phi1: 0.3 + g.Float64()*0.6, Sigma: 1 + g.Float64()*3, Init: g.IntN(20)}
		}
	}
	f := func(seed uint64) bool {
		g := stats.NewRNG(seed)
		p := build(g)
		h := NewHistory(p.Generate(stats.NewRNG(seed+1), 5)...)
		for _, d := range []int{1, 3} {
			if m := dist.TotalMass(p.Forecast(h, d)); math.Abs(m-1) > 1e-6 {
				return false
			}
		}
		a := p.Generate(stats.NewRNG(seed+2), 20)
		b := p.Generate(stats.NewRNG(seed+2), 20)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Shifting the centred increment table must reproduce the direct
// discretization N(last + Δ·Drift, Δ·Sigma²) cell for cell whenever Δ·Drift
// is an integer (see GaussianWalk.Increment).
func TestGaussianWalkForecastEqualsDirectDiscretization(t *testing.T) {
	for _, drift := range []float64{0, 1, -2, 0.5} {
		w := &GaussianWalk{Drift: drift, Sigma: 1.3, Init: 4}
		for _, last := range []int{0, 7, -1234, 1 << 20} {
			h := NewHistory(last)
			for delta := 1; delta <= 40; delta++ {
				if fd := float64(delta) * drift; fd != math.Trunc(fd) {
					continue
				}
				mean, sd := w.ForecastNormal(last, delta)
				want := dist.Normal(mean, sd, 1e-9)
				got := w.Forecast(h, delta)
				glo, ghi := got.Support()
				wlo, whi := want.Support()
				if glo != wlo || ghi != whi {
					t.Fatalf("drift %v last %d Δ %d: support [%d,%d], want [%d,%d]", drift, last, delta, glo, ghi, wlo, whi)
				}
				for v := wlo; v <= whi; v++ {
					if got.Prob(v) != want.Prob(v) {
						t.Fatalf("drift %v last %d Δ %d v %d: %v != %v", drift, last, delta, v, got.Prob(v), want.Prob(v))
					}
				}
			}
		}
	}
}

// One model value is shared by every shard goroutine of a runtime, so
// Forecast must be callable from many goroutines at once, including while
// the horizon tables of the memoizing models are still growing. Run under
// -race.
func TestForecastConcurrentOnSharedModel(t *testing.T) {
	mc, err := NewMarkovChain(0, [][]float64{{0.5, 0.5, 0}, {0.2, 0.6, 0.2}, {0, 0.5, 0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]Process{
		"random-walk":   &RandomWalk{Step: dist.NewUniform(-1, 1)},
		"gaussian-walk": &GaussianWalk{Sigma: 1},
		"markov":        mc,
	} {
		var wg sync.WaitGroup
		sums := make([]float64, 8)
		for g := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := NewHistory(1)
				for delta := 1 + g%3; delta <= 60; delta += 1 + g%2 {
					sums[g] += p.Forecast(h, delta).Prob(1)
				}
			}()
		}
		wg.Wait()
		h := NewHistory(1)
		for g, got := range sums {
			var want float64
			for delta := 1 + g%3; delta <= 60; delta += 1 + g%2 {
				want += p.Forecast(h, delta).Prob(1)
			}
			if got != want {
				t.Errorf("%s goroutine %d: concurrent sum %v != serial %v", name, g, got, want)
			}
		}
	}
}

// len returns the number of entries built so far.
func (m *deltaMemo[T]) len() int {
	if p := m.tabs.Load(); p != nil {
		return len(*p)
	}
	return 0
}

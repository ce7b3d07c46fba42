package process

import (
	"math"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/stats"
)

func mustChain(t *testing.T, lo int, p [][]float64, init int) *MarkovChain {
	t.Helper()
	m, err := NewMarkovChain(lo, p, init)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMarkovChainValidation(t *testing.T) {
	if _, err := NewMarkovChain(0, nil, 0); err == nil {
		t.Fatal("empty matrix should fail")
	}
	if _, err := NewMarkovChain(0, [][]float64{{0.5, 0.5}, {1}}, 0); err == nil {
		t.Fatal("ragged matrix should fail")
	}
	if _, err := NewMarkovChain(0, [][]float64{{0.5, 0.4}, {0.5, 0.5}}, 0); err == nil {
		t.Fatal("non-stochastic row should fail")
	}
	if _, err := NewMarkovChain(0, [][]float64{{0.5, -0.5}, {0.5, 0.5}}, 0); err == nil {
		t.Fatal("negative entry should fail")
	}
	if _, err := NewMarkovChain(0, [][]float64{{1, 0}, {0, 1}}, 5); err == nil {
		t.Fatal("init outside range should fail")
	}
}

func TestMarkovForecastTwoStateClosedForm(t *testing.T) {
	// Symmetric two-state chain with switch probability q: the probability
	// of being in the starting state after d steps is (1 + (1-2q)^d)/2.
	q := 0.3
	m := mustChain(t, 10, [][]float64{{1 - q, q}, {q, 1 - q}}, 10)
	h := NewHistory(10)
	for d := 1; d <= 8; d++ {
		f := m.Forecast(h, d)
		want := (1 + math.Pow(1-2*q, float64(d))) / 2
		if got := f.Prob(10); math.Abs(got-want) > 1e-12 {
			t.Fatalf("d=%d: Prob(start) = %v, want %v", d, got, want)
		}
		if got := dist.TotalMass(f); math.Abs(got-1) > 1e-12 {
			t.Fatalf("d=%d: mass %v", d, got)
		}
	}
}

func TestMarkovForecastConditionsOnLastObservation(t *testing.T) {
	m := mustChain(t, 0, [][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}}, 0) // 3-cycle
	// Last observed 1 → next is 2 with certainty, then 0, then 1.
	h := NewHistory(0, 1)
	if got := m.Forecast(h, 1).Prob(2); got != 1 {
		t.Fatalf("delta 1: %v", got)
	}
	if got := m.Forecast(h, 2).Prob(0); got != 1 {
		t.Fatalf("delta 2: %v", got)
	}
	if got := m.Forecast(h, 3).Prob(1); got != 1 {
		t.Fatalf("delta 3: %v", got)
	}
	// Empty history: condition on Init.
	if got := m.Forecast(NewHistory(), 1).Prob(1); got != 1 {
		t.Fatalf("init conditioning: %v", got)
	}
}

func TestMarkovGenerateMatchesStationary(t *testing.T) {
	// Chain with stationary distribution (2/3, 1/3): p01 = 0.2, p10 = 0.4.
	m := mustChain(t, 0, [][]float64{{0.8, 0.2}, {0.4, 0.6}}, 0)
	out := m.Generate(stats.NewRNG(5), 60000)
	ones := 0
	for _, v := range out {
		if v == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(len(out))
	if math.Abs(frac-1.0/3) > 0.01 {
		t.Fatalf("state-1 fraction %v, want ~1/3", frac)
	}
	if m.Independent() {
		t.Fatal("Markov chain must not report independence")
	}
}

func TestMarkovRowPowerMemoization(t *testing.T) {
	m := mustChain(t, 0, [][]float64{{0.5, 0.5}, {0.5, 0.5}}, 0)
	h := NewHistory(0)
	m.Forecast(h, 5)
	if m.powers.len() != 5 {
		t.Fatalf("memoized %d powers, want 5", m.powers.len())
	}
	m.Forecast(h, 3)
	if m.powers.len() != 5 {
		t.Fatal("re-forecast should reuse the cache")
	}
}

func TestMarkovStateClamping(t *testing.T) {
	m := mustChain(t, 100, [][]float64{{1, 0}, {0, 1}}, 100)
	// Observation outside the chain's range clamps to the nearest state
	// instead of panicking.
	h := NewHistory(999)
	if got := m.Forecast(h, 1).Prob(101); got != 1 {
		t.Fatalf("clamped forecast: %v", got)
	}
	h2 := NewHistory(-50)
	if got := m.Forecast(h2, 1).Prob(100); got != 1 {
		t.Fatalf("low clamp: %v", got)
	}
}

package process

import (
	"fmt"

	"stochstream/internal/dist"
	"stochstream/internal/stats"
)

// MarkovChain is a finite-state first-order Markov model over a contiguous
// integer value range [Lo, Lo+len(P)-1]: P[i][j] is the probability of
// moving from value Lo+i to value Lo+j. It extends the framework beyond the
// paper's case studies — Aho, Denning and Ullman's analysis covers Markov
// reference strings, and the ECB machinery applies through multi-step
// transition powers.
type MarkovChain struct {
	Lo   int
	P    [][]float64
	Init int // initial value; must lie in [Lo, Lo+len(P)-1]

	// powers caches row distributions: powers[d-1][i] is the value
	// distribution d steps after state i, filled lazily.
	powers deltaMemo[[][]float64]
}

// NewMarkovChain validates the transition matrix (square, stochastic rows)
// and returns the model.
func NewMarkovChain(lo int, p [][]float64, initValue int) (*MarkovChain, error) {
	n := len(p)
	if n == 0 {
		return nil, fmt.Errorf("process: empty transition matrix")
	}
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("process: row %d has %d entries for %d states", i, len(row), n)
		}
		var sum float64
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("process: negative transition P[%d][%d]", i, j)
			}
			sum += v
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return nil, fmt.Errorf("process: row %d sums to %g", i, sum)
		}
	}
	if initValue < lo || initValue >= lo+n {
		return nil, fmt.Errorf("process: initial value %d outside [%d, %d]", initValue, lo, lo+n-1)
	}
	return &MarkovChain{Lo: lo, P: p, Init: initValue}, nil
}

// States returns the number of states.
func (m *MarkovChain) States() int { return len(m.P) }

// stateOf clamps a value to a state index.
func (m *MarkovChain) stateOf(v int) int {
	s := v - m.Lo
	if s < 0 {
		s = 0
	}
	if s >= len(m.P) {
		s = len(m.P) - 1
	}
	return s
}

// rowPower returns the value distribution delta steps after state i.
func (m *MarkovChain) rowPower(i, delta int) []float64 {
	return m.powers.get(delta, func(built [][][]float64) [][]float64 {
		next := make([][]float64, len(m.P))
		for s := range next {
			var prev []float64
			if len(built) > 0 {
				prev = built[len(built)-1][s]
			} else {
				prev = oneHot(len(m.P), s)
			}
			next[s] = stepVector(prev, m.P)
		}
		return next
	})[i]
}

func oneHot(n, i int) []float64 {
	v := make([]float64, n)
	v[i] = 1
	return v
}

// stepVector returns q·P for a row vector q.
func stepVector(q []float64, p [][]float64) []float64 {
	out := make([]float64, len(q))
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		row := p[i]
		for j, pij := range row {
			if pij != 0 {
				out[j] += qi * pij
			}
		}
	}
	return out
}

// Forecast implements Process.
func (m *MarkovChain) Forecast(h *History, delta int) dist.PMF {
	checkDelta(delta)
	row := m.rowPower(m.stateOf(h.LastOr(m.Init)), delta)
	return dist.NewTable(m.Lo, row)
}

// Generate implements Process.
func (m *MarkovChain) Generate(rng *stats.RNG, n int) []int {
	out := make([]int, n)
	state := m.stateOf(m.Init)
	for t := range out {
		u := rng.Float64()
		var c float64
		next := len(m.P) - 1
		for j, p := range m.P[state] {
			c += p
			if u < c {
				next = j
				break
			}
		}
		state = next
		out[t] = m.Lo + state
	}
	return out
}

// Independent implements Process.
func (m *MarkovChain) Independent() bool { return false }

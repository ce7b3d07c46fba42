// Package core implements the paper's primary contribution: expected
// cumulative benefit (ECB) functions over candidate tuples, the dominance
// tests that certify provably optimal cache-replacement decisions
// (Theorem 3, Corollary 2), the HEEB heuristic with its family of survival
// estimates L_x (Section 4.3), the efficient implementations of Section 4.4
// (time-incremental, value-incremental, and precomputed h1/h2 forms), the
// FlowExpect flow-graph construction of Section 3.1, and the compressed
// OPT-offline flow formulation used as the experiments' upper bound.
package core

import (
	"stochstream/internal/process"
)

// ECB is an expected cumulative benefit function tabulated at
// Δt = 1..len(ECB): ECB[i] = B_x(i+1)... indexing note: ECB[Δt-1] = B_x(Δt),
// the expected number of result tuples tuple x produces during
// [t0+1, t0+Δt] if kept in cache throughout (Section 4.1).
type ECB []float64

// At returns B_x(Δt) for Δt >= 1. Beyond the tabulated horizon the last
// value is returned (every ECB in the paper is non-decreasing and the
// models here plateau once the relevant probability mass has passed).
func (b ECB) At(dt int) float64 {
	if dt < 1 {
		panic("core: ECB.At requires Δt >= 1")
	}
	if len(b) == 0 {
		return 0
	}
	if dt > len(b) {
		return b[len(b)-1]
	}
	return b[dt-1]
}

// JoinECB computes, per Lemma 1, the ECB of a candidate tuple with join
// attribute value v to be joined with the partner stream: B_x(Δt) =
// Σ_{t=t0+1}^{t0+Δt} Pr{X^partner_t = v | x̄_{t0}}, tabulated out to horizon
// steps. h is the partner stream's observed history through the current
// time t0.
func JoinECB(partner process.Process, h *process.History, v int, horizon int) ECB {
	if horizon < 1 {
		panic("core: JoinECB requires horizon >= 1")
	}
	b := make(ECB, horizon)
	var cum float64
	for dt := 1; dt <= horizon; dt++ {
		cum += partner.Forecast(h, dt).Prob(v)
		b[dt-1] = cum
	}
	return b
}

// CacheECB computes, per Corollary 1, the ECB of a candidate database tuple
// with value v referenced by stream ref: B_x(Δt) = 1 − Π_{t=t0+1}^{t0+Δt}
// Pr{X^ref_t ≠ v | x̄_{t0}}, the probability of at least one reference in
// the period. The product form requires the reference stream's per-step
// variables to be independent; for Markov streams (random walk, AR(1)) use
// the marginal-based MarginalH of Theorem 5 instead. Reference-stream tuples
// themselves always have a zero ECB.
func CacheECB(ref process.Process, h *process.History, v int, horizon int) ECB {
	if horizon < 1 {
		panic("core: CacheECB requires horizon >= 1")
	}
	if !ref.Independent() {
		panic("core: CacheECB requires an independent reference process; see MarginalH")
	}
	b := make(ECB, horizon)
	notRef := 1.0
	for dt := 1; dt <= horizon; dt++ {
		notRef *= 1 - ref.Forecast(h, dt).Prob(v)
		b[dt-1] = 1 - notRef
	}
	return b
}

// Dominates reports whether a dominates b: a(Δt) ≥ b(Δt) for all Δt ≥ 1
// over the common tabulated horizon (Section 4.2). ECBs of different lengths
// are compared through At, which extends each by its plateau.
func Dominates(a, b ECB) bool {
	n := max(len(a), len(b))
	if n == 0 {
		return true
	}
	for dt := 1; dt <= n; dt++ {
		if a.At(dt) < b.At(dt) {
			return false
		}
	}
	return true
}

// StronglyDominates reports whether a(Δt) > b(Δt) strictly for all Δt ≥ 1.
func StronglyDominates(a, b ECB) bool {
	n := max(len(a), len(b))
	if n == 0 {
		return false
	}
	for dt := 1; dt <= n; dt++ {
		if a.At(dt) <= b.At(dt) {
			return false
		}
	}
	return true
}

// DominatedSubset finds a subset V of the candidates, |V| ≤ want, such that
// every candidate outside V dominates every candidate inside V — the
// condition of Corollary 2 under which discarding all of V is optimal. It
// returns the indices of V (possibly fewer than want, possibly none).
//
// The search uses the closure structure of the condition: V is valid exactly
// when, for every v ∈ V, every candidate that does NOT dominate v is itself
// in V. Closures of single candidates are therefore the minimal valid
// building blocks, and unions of valid sets are valid, so a greedy union of
// the smallest closures is returned.
func DominatedSubset(ecbs []ECB, want int) []int {
	n := len(ecbs)
	if want <= 0 || n == 0 {
		return nil
	}
	// dom[i][j]: ecbs[i] dominates ecbs[j].
	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		for j := range dom[i] {
			if i != j {
				dom[i][j] = Dominates(ecbs[i], ecbs[j])
			}
		}
	}
	// closure(x): least set containing x such that any non-dominator of a
	// member is also a member.
	closure := func(x int) []int {
		in := make([]bool, n)
		in[x] = true
		queue := []int{x}
		var members []int
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			if len(members) > want {
				return nil // already too large to be useful
			}
			for u := 0; u < n; u++ {
				if u != v && !in[u] && !dom[u][v] {
					in[u] = true
					queue = append(queue, u)
				}
			}
		}
		return members
	}
	closures := make([][]int, 0, n)
	for x := 0; x < n; x++ {
		if c := closure(x); c != nil {
			closures = append(closures, c)
		}
	}
	// Greedy union of smallest closures first.
	sortBySize(closures)
	chosen := make([]bool, n)
	var out []int
	for _, c := range closures {
		added := 0
		for _, v := range c {
			if !chosen[v] {
				added++
			}
		}
		if len(out)+added > want {
			continue
		}
		for _, v := range c {
			if !chosen[v] {
				chosen[v] = true
				out = append(out, v)
			}
		}
		if len(out) == want {
			break
		}
	}
	return out
}

func sortBySize(cs [][]int) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && len(cs[j]) < len(cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

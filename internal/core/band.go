package core

import (
	"sort"

	"stochstream/internal/dist"
	"stochstream/internal/process"
)

// Band-join support: the paper's Section 8 lists generalization to
// non-equality joins as future work. A band join with radius ε matches
// tuples whose join-attribute values differ by at most ε; the framework
// carries over by replacing the point probability Pr{X = v} with the band
// probability Pr{|X − v| ≤ ε} in every ECB and HEEB sum. ε = 0 recovers the
// equijoin forms exactly.

// BandProb returns Pr{v−eps ≤ X ≤ v+eps} for X ~ p.
func BandProb(p dist.PMF, v, eps int) float64 {
	if eps == 0 {
		return p.Prob(v)
	}
	lo, hi := p.Support()
	a, b := max(lo, v-eps), min(hi, v+eps)
	var s float64
	for x := a; x <= b; x++ {
		s += p.Prob(x)
	}
	return s
}

// BandJoinECB generalizes Lemma 1 to band joins: B_x(Δt) =
// Σ_{t=t0+1}^{t0+Δt} Pr{|X^partner_t − v| ≤ eps | x̄_{t0}}.
func BandJoinECB(partner process.Process, h *process.History, v, eps, horizon int) ECB {
	if horizon < 1 {
		panic("core: BandJoinECB requires horizon >= 1")
	}
	b := make(ECB, horizon)
	var cum float64
	for dt := 1; dt <= horizon; dt++ {
		cum += BandProb(partner.Forecast(h, dt), v, eps)
		b[dt-1] = cum
	}
	return b
}

// BandJoinH generalizes HEEB's joining score to band joins.
func BandJoinH(partner process.Process, h *process.History, v, eps int, l LFunc, fallbackHorizon int) float64 {
	horizon := HorizonFor(l, fallbackHorizon)
	var sum float64
	for dt := 1; dt <= horizon; dt++ {
		p := BandProb(partner.Forecast(h, dt), v, eps)
		if p != 0 {
			sum += p * l.At(dt)
		}
	}
	return sum
}

// OptOfflineBandJoin computes the MAX-subset offline optimum for a band join
// with radius eps (eps = 0 degenerates to OptOfflineJoin). A tuple arriving
// at time a matches every partner arrival at time t > a with a value within
// eps (and within the sliding window when window > 0).
func OptOfflineBandJoin(r, s []int, k, eps, window int) OptOfflineResult {
	if eps == 0 {
		return OptOfflineJoin(r, s, k, window)
	}
	n := len(r)
	if len(s) != n {
		panic("core: OptOfflineBandJoin requires equally long streams")
	}
	if k < 1 || n == 0 {
		return OptOfflineResult{}
	}
	// occurrences[stream][v]: times at which value v arrives on stream.
	occ := [2]map[int][]int{make(map[int][]int), make(map[int][]int)}
	for t := 0; t < n; t++ {
		occ[0][r[t]] = append(occ[0][r[t]], t)
		occ[1][s[t]] = append(occ[1][s[t]], t)
	}
	matchTimes := func(stream StreamID, v, arrived int) []int {
		var all []int
		for u := v - eps; u <= v+eps; u++ {
			all = append(all, occ[stream.Partner()][u]...)
		}
		sort.Ints(all)
		i := sort.SearchInts(all, arrived+1)
		out := all[i:]
		if window > 0 {
			j := sort.SearchInts(out, arrived+window+1)
			out = out[:j]
		}
		return out
	}
	return optOfflineWithMatches(r, s, k, matchTimes)
}

// Package policy implements the cache-replacement policies compared in the
// paper's joining experiments: the oblivious RAND, the hardwired heuristics
// PROB and LIFE of Das et al. (window-aware variants, as in Section 6.2),
// the paper's HEEB (one scorer over the persistent forecast window, with the
// exact table of h by coordinate that Corollary 5 and Theorem 5(2) allow), and
// the FlowExpect algorithm of Section 3.
package policy

import (
	"slices"

	"stochstream/internal/join"
	"stochstream/internal/stats"
)

// Lifetime estimates how many more steps a tuple can produce join results;
// values <= 0 mean the tuple is expired (it lies behind its partner's
// reachable window). The TOWER/ROOF/FLOOR experiments use the noise bound as
// this pseudo-window, exactly as the paper configures LIFE, RAND and PROB.
type Lifetime func(now int, tp join.Tuple) int

// evictLowest returns the indices of the n lowest-scoring candidates in
// ascending (score, ID) order, breaking ties by preferring older tuples
// (smaller ID) for determinism, appended to dst[:0] (a policy that calls it
// once per decision hands in the buffer it reuses, see join.Policy.Evict).
// A steady-state decision selects n = 2 victims out of cacheSize+2
// candidates: up to two are found in one scan that carries the lowest and the
// second lowest so far; more keep a bounded max-heap of the n best victims
// seen so far (O(N log n)) and only sort those n at the end. The output is
// identical to the full stable sort's first n entries: (score, ID) is a total
// order over distinct candidates, so stability never matters.
func evictLowest(scores []float64, cands []join.Tuple, n int, dst []int) []int {
	if n <= 0 {
		return []int{}
	}
	// worse reports whether candidate a makes a strictly worse victim than b,
	// i.e. sorts after it in the ascending (score, ID) order.
	worse := func(a, b int) bool {
		// Exact float comparison, a deterministic (score, ID) tie-break: scores are bitwise-reproducible kernel outputs
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return cands[a].ID > cands[b].ID
	}
	sel := dst[:0]
	if n <= 2 && n < len(cands) {
		lo, next := 0, -1
		for i := 1; i < len(cands); i++ {
			if worse(lo, i) {
				lo, next = i, lo
			} else if next < 0 || worse(next, i) {
				next = i
			}
		}
		return append(sel, lo, next)[:n]
	}
	for i := 0; i < min(n, len(cands)); i++ {
		sel = append(sel, i)
	}
	if n < len(cands) {
		// Max-heap of the current n victims, rooted at the worst of them.
		for i := n/2 - 1; i >= 0; i-- {
			heapSiftDown(sel, i, worse)
		}
		for i := n; i < len(cands); i++ {
			if worse(sel[0], i) {
				sel[0] = i
				heapSiftDown(sel, 0, worse)
			}
		}
	}
	slices.SortFunc(sel, func(a, b int) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	return sel
}

// byID returns the candidates' positions in ascending ID order. A policy that
// hands out random draws, or builds a structure, in this order answers the
// same for every listing of one candidate set (join.Policy.Evict).
func byID(cands []join.Tuple) []int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cands[a].ID - cands[b].ID })
	return order
}

// heapSiftDown restores the max-heap property (parent worse than children,
// per the comparator) below position i.
func heapSiftDown(h []int, i int, worse func(a, b int) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		top := i
		if l < len(h) && worse(h[l], h[top]) {
			top = l
		}
		if r < len(h) && worse(h[r], h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// Rand discards tuples uniformly at random, except that expired tuples (per
// the optional Lifetime) are always discarded first.
type Rand struct {
	Lifetime Lifetime
	rng      *stats.RNG
}

// Name implements join.Policy.
func (p *Rand) Name() string { return "RAND" }

// Reset implements join.Policy.
func (p *Rand) Reset(_ join.Config, rng *stats.RNG) { p.rng = rng }

// Evict implements join.Policy. The permutation's k-th draw goes to the k-th
// candidate in ID order.
func (p *Rand) Evict(st *join.State, cands []join.Tuple, n int) []int {
	scores := make([]float64, len(cands))
	perm := p.rng.Perm(len(cands))
	for k, i := range byID(cands) {
		// Random base score; expired tuples forced to the bottom.
		scores[i] = 1 + float64(perm[k])
		if p.Lifetime != nil && p.Lifetime(st.Time, cands[i]) <= 0 {
			scores[i] = -1 - float64(perm[k])
		}
	}
	return evictLowest(scores, cands, n, nil)
}

// valueCounts holds the empirical frequencies of each stream's values, which
// PROB and LIFE use to estimate join probabilities from the past: pushed in
// at arrival (join.ArrivalObserver), snapshotted in snapshot.go.
type valueCounts struct {
	counts [2]*stats.Counts
}

func newValueCounts() *valueCounts {
	return &valueCounts{counts: [2]*stats.Counts{stats.NewCounts(), stats.NewCounts()}}
}

// ObserveArrivals implements join.ArrivalObserver.
func (vc *valueCounts) ObserveArrivals(r, s int) {
	vc.counts[0].Add(r)
	vc.counts[1].Add(s)
}

// partnerFreq estimates the probability that a partner arrival matches tp,
// summing over the band when the join is a band join.
func (vc *valueCounts) partnerFreq(st *join.State, tp join.Tuple) float64 {
	partner := tp.Stream.Partner()
	total := st.Hists[partner].Len()
	if total == 0 {
		return 0
	}
	return float64(vc.counts[partner].BandCount(tp.Value, st.Config.Band)) / float64(total)
}

// Prob is the PROB heuristic of Das et al.: discard the tuple whose join
// attribute value is least frequent in the partner stream's history.
// Section 5.2 proves it optimal for stationary independent streams; with a
// trend it systematically discards fresh arrivals (Section 6.3). Expired
// tuples are discarded first when a Lifetime is configured.
type Prob struct {
	Lifetime Lifetime
	*valueCounts
}

// Name implements join.Policy.
func (p *Prob) Name() string { return "PROB" }

// Reset implements join.Policy.
func (p *Prob) Reset(join.Config, *stats.RNG) { p.valueCounts = newValueCounts() }

// Evict implements join.Policy.
func (p *Prob) Evict(st *join.State, cands []join.Tuple, n int) []int {
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = p.partnerFreq(st, c)
		if p.Lifetime != nil && p.Lifetime(st.Time, c) <= 0 {
			scores[i] = -1
		}
	}
	return evictLowest(scores, cands, n, nil)
}

// Reservoir is the sampling comparator from the related-work discussion:
// load shedding by maintaining a uniform random sample of all tuples seen so
// far (classic reservoir sampling over the union of both streams). It is the
// method of choice when a statistical sample of the *result* is wanted, but
// — as the paper argues — it is ineffective under the MAX-subset measure,
// which the experiments against HEEB make concrete.
type Reservoir struct {
	rng  *stats.RNG
	seen int
}

// Name implements join.Policy.
func (p *Reservoir) Name() string { return "RESERVOIR" }

// Reset implements join.Policy.
func (p *Reservoir) Reset(_ join.Config, rng *stats.RNG) {
	p.rng = rng
	p.seen = 0
}

// Evict implements join.Policy: each arrival (a candidate that arrived at
// st.Time) is admitted with probability k/seen (the reservoir rule),
// displacing a uniformly random cached tuple; rejected arrivals are
// discarded. Exactly n indices are returned: rejected arrivals first, then
// random cached victims for the admitted ones (an admitted arrival is bumped
// back out only when the cache is too small to hold both admissions). The
// candidates are visited in ID order, which puts the arrivals last.
func (p *Reservoir) Evict(st *join.State, cands []join.Tuple, n int) []int {
	k := st.Config.CacheSize
	order := byID(cands)
	cached := 0
	for cached < len(order) && cands[order[cached]].Arrived < st.Time {
		cached++
	}
	var evict []int
	for _, ai := range order[cached:] {
		p.seen++
		if p.seen > k && p.rng.IntN(p.seen) >= k {
			evict = append(evict, ai)
		}
	}
	// Fill the remainder with distinct random cached victims; if the cache
	// cannot absorb every admission, bump arrivals back out (newest first).
	perm := p.rng.Perm(cached)
	for i := 0; len(evict) < n; i++ {
		if i < cached {
			evict = append(evict, order[perm[i]])
		} else {
			evict = append(evict, order[len(order)-1-(i-cached)])
		}
	}
	return evict[:n]
}

// Life is the LIFE heuristic of Das et al.: discard the tuple with the
// smallest product of estimated join probability and remaining lifetime. It
// requires a Lifetime estimator (the paper skips LIFE for WALK, which has no
// window).
type Life struct {
	Lifetime Lifetime
	*valueCounts
}

// Name implements join.Policy.
func (p *Life) Name() string { return "LIFE" }

// Reset implements join.Policy.
func (p *Life) Reset(join.Config, *stats.RNG) {
	if p.Lifetime == nil {
		panic("policy: LIFE requires a Lifetime estimator")
	}
	p.valueCounts = newValueCounts()
}

// Evict implements join.Policy.
func (p *Life) Evict(st *join.State, cands []join.Tuple, n int) []int {
	scores := make([]float64, len(cands))
	for i, c := range cands {
		life := p.Lifetime(st.Time, c)
		if life <= 0 {
			scores[i] = -1
			continue
		}
		scores[i] = p.partnerFreq(st, c) * float64(life)
	}
	return evictLowest(scores, cands, n, nil)
}

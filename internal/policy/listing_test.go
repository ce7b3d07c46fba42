package policy

import (
	"slices"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// TestPoliciesAreListingIndependent holds every policy of this package to the
// join.Policy contract: the answer depends on the candidate set, not on the
// order of the list. Each decision is asked twice, of two policies in the same
// state (same configuration, same arrivals observed, same RNG seed): once with
// the cached part in ID order, as a linear scan lists it, and once shuffled,
// as the operator's slot table may list it. Both must evict the same IDs.
func TestPoliciesAreListingIndependent(t *testing.T) {
	const t0, cache = 60, 8
	base, procs := trendConfig(cache)
	rng := stats.NewRNG(5)
	r := procs[0].Generate(rng.Split(), t0+1)
	s := procs[1].Generate(rng.Split(), t0+1)
	lifetime := func(now int, tp join.Tuple) int { return tp.Arrived + 30 - now }
	policies := []struct {
		name string
		mk   func() join.Policy
	}{
		{"RAND", func() join.Policy { return &Rand{} }},
		{"RAND-lifetime", func() join.Policy { return &Rand{Lifetime: lifetime} }},
		{"PROB", func() join.Policy { return &Prob{Lifetime: lifetime} }},
		{"LIFE", func() join.Policy { return &Life{Lifetime: lifetime} }},
		{"HEEB", func() join.Policy { return NewHEEB(HEEBOptions{LifetimeEstimate: 3}) }},
		{"HEEB-adaptive", func() join.Policy { return NewHEEB(HEEBOptions{LifetimeEstimate: 3, Adaptive: true}) }},
		{"FLOWEXPECT", func() join.Policy { return &FlowExpect{Lookahead: 4} }},
		{"RESERVOIR", func() join.Policy { return &Reservoir{} }},
		{"OPT-OFFLINE", func() join.Policy { return &Clairvoyant{R: r, S: s} }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			for trial := uint64(0); trial < 20; trial++ {
				trng := stats.NewRNG(100 + trial)
				// The cached part: tuples of both streams from the last 40
				// steps, in ID order (ID 2t for R, 2t+1 for S), about a quarter
				// of them past a lifetime of 30 steps; then the step's two
				// arrivals. Every other pair of trials runs under a window of
				// 30.
				cfg := base
				cfg.Window = 30 * int(trial/2%2)
				var cands []join.Tuple
				for _, id := range trng.Sample(2*(t0-20), cache, nil) {
					id += 40
					at, stream := id/2, core.StreamID(id%2)
					v := r[at]
					if stream == core.StreamS {
						v = s[at]
					}
					cands = append(cands, join.Tuple{ID: id, Value: v, Stream: stream, Arrived: at})
				}
				slices.SortFunc(cands, func(a, b join.Tuple) int { return a.ID - b.ID })
				cands = append(cands,
					join.Tuple{ID: 2 * t0, Value: r[t0], Stream: core.StreamR, Arrived: t0},
					join.Tuple{ID: 2*t0 + 1, Value: s[t0], Stream: core.StreamS, Arrived: t0})
				shuffled := slices.Clone(cands)
				perm := trng.Perm(cache)
				for i, p := range perm {
					shuffled[i] = cands[p]
				}
				n := 1 + int(trial%2)
				want := evictedIDs(pc.mk(), cfg, r, s, t0, cands, n, trial)
				got := evictedIDs(pc.mk(), cfg, r, s, t0, shuffled, n, trial)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: listed in ID order it evicts %v, shuffled %v", trial, want, got)
				}
			}
		})
	}
}

// evictedIDs resets p with the given seed, shows it the streams through t0,
// asks it for n victims among cands and returns their IDs in ascending order.
func evictedIDs(p join.Policy, cfg join.Config, r, s []int, t0 int, cands []join.Tuple, n int, seed uint64) []int {
	p.Reset(cfg, stats.NewRNG(seed))
	if o, ok := p.(join.ArrivalObserver); ok {
		observe(o, r[:t0+1], s[:t0+1])
	}
	st := &join.State{
		Time:   t0,
		Hists:  [2]*process.History{process.NewHistory(r[:t0+1]...), process.NewHistory(s[:t0+1]...)},
		Config: cfg,
	}
	var ids []int
	for _, i := range p.Evict(st, slices.Clip(cands), n) {
		ids = append(ids, cands[i].ID)
	}
	slices.Sort(ids)
	return ids
}

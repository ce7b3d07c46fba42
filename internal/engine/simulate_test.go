package engine

import (
	"fmt"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// simulate is the simulator's loop as it stood before Run stepped the
// operator, kept as Run's oracle: a linear scan of the cache, which it lists
// in ID order and copies at every decision. Its window semantics are the
// seed's: an expired tuple joins nothing but keeps its slot until the policy
// discards it, so it is offered to the policy and counts as an eviction when
// chosen. The caller's rng is the policy's Reset source.
func simulate(r, s []int, p join.Policy, cfg join.Config, rng *stats.RNG) join.Result {
	if len(r) != len(s) {
		panic("simulate: streams must have equal length")
	}
	arrivals, _ := p.(join.ArrivalObserver)
	_, eager := p.(join.EagerEvictor)
	p.Reset(cfg, rng)
	warmup := cfg.EffectiveWarmup()
	hists := [2]*process.History{process.NewHistory(), process.NewHistory()}
	st := &join.State{Hists: hists, Config: cfg}
	var cache []join.Tuple
	var res join.Result
	for t := range r {
		newR := join.Tuple{ID: 2 * t, Value: r[t], Stream: core.StreamR, Arrived: t}
		newS := join.Tuple{ID: 2*t + 1, Value: s[t], Stream: core.StreamS, Arrived: t}
		hists[core.StreamR].Append(newR.Value)
		hists[core.StreamS].Append(newS.Value)
		if arrivals != nil {
			arrivals.ObserveArrivals(newR.Value, newS.Value)
		}
		st.Time = t

		joins := 0
		for _, c := range cache {
			if cfg.Window > 0 && t-c.Arrived > cfg.Window {
				continue
			}
			partner := newR
			if c.Stream == core.StreamR {
				partner = newS
			}
			if keysMatch(c.Value, partner.Value, cfg.Band) {
				joins++
			}
		}
		res.TotalJoins += joins
		if t >= warmup {
			res.Joins += joins
		}

		candidates := append(append([]join.Tuple(nil), cache...), newR, newS)
		need := len(candidates) - cfg.CacheSize
		if need <= 0 && !eager {
			cache = candidates
		} else {
			evict := p.Evict(st, candidates, max(need, 0))
			drop := map[int]bool{}
			for _, i := range evict {
				if i < 0 || i >= len(candidates) || drop[i] {
					panic(fmt.Sprintf("simulate: policy %s returned invalid eviction %d", p.Name(), i))
				}
				drop[i] = true
			}
			if len(evict) < need || len(evict) > need && !eager {
				panic(fmt.Sprintf("simulate: policy %s returned %d evictions, need %d", p.Name(), len(evict), need))
			}
			res.Evictions += len(evict)
			cache = cache[:0]
			for i, c := range candidates {
				if !drop[i] {
					cache = append(cache, c)
				}
			}
		}

		if cfg.TrackOccupancy {
			nr := 0
			for _, c := range cache {
				if c.Stream == core.StreamR {
					nr++
				}
			}
			frac := 0.0
			if len(cache) > 0 {
				frac = float64(nr) / float64(len(cache))
			}
			res.OccupancyR = append(res.OccupancyR, frac)
		}
	}
	return res
}

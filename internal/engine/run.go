package engine

import (
	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// Run simulates the paper's joining problem: it steps a Join once per arrival
// pair (r[t] and s[t] arrive at step t) under the policy p, with rng as the
// policy's Reset source, and keeps beside it only what the paper's accounting
// adds. Same-time pairs are delivered but not counted, so TotalJoins is
// Pairs − SameTimePairs and Joins its part after cfg's warm-up. Under a sliding window expired tuples are pruned before a decision
// (Metrics.Expired), so the policy never sees them and Evictions counts only
// its own choices. When telemetry.EnableGlobal has installed the process-wide
// registry, the operator reports into it.
//
// Run panics on streams of unequal length, on a configuration NewJoin
// rejects and on a policy's invalid answer: each is a programming error.
func Run(r, s []int, p join.Policy, cfg join.Config, rng *stats.RNG) join.Result {
	if len(r) != len(s) {
		panic("engine: streams must have equal length")
	}
	j, err := newJoin(Config{CacheSize: cfg.CacheSize, Window: cfg.Window, Band: cfg.Band, Procs: cfg.Procs,
		Policy: p, Telemetry: telemetry.Global()}, rng)
	if err != nil {
		panic(err)
	}
	var res join.Result
	warmup, atWarmup := cfg.EffectiveWarmup(), 0
	step := make([]TuplePair, 1)
	for t := range r {
		if t == warmup {
			atWarmup = j.m.Pairs - j.m.SameTimePairs
		}
		step[0] = TuplePair{R: Tuple{Key: r[t]}, S: Tuple{Key: s[t]}}
		j.StepRun(step)
		if cfg.TrackOccupancy {
			res.OccupancyR = append(res.OccupancyR, j.occupancyR())
		}
	}
	res.TotalJoins = j.m.Pairs - j.m.SameTimePairs
	if warmup < len(r) {
		res.Joins = res.TotalJoins - atWarmup
	}
	res.Evictions = j.m.Evictions
	return res
}

// occupancyR is the fraction of the cache's entries that are R tuples, 0 for
// an empty cache.
func (j *Join) occupancyR() float64 {
	nr := 0
	for _, c := range j.cache {
		if c.Stream == core.StreamR {
			nr++
		}
	}
	if nr == 0 {
		return 0
	}
	return float64(nr) / float64(len(j.cache))
}

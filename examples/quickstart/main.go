// Quickstart: join two drifting sensor streams with a 10-tuple cache and
// compare HEEB's model-driven replacement against random replacement and the
// offline optimum.
package main

import (
	"fmt"

	"stochstream"
)

func main() {
	// Two streams with an increasing linear trend and bounded normal noise
	// (the paper's TOWER setup): R lags one step behind S.
	r := &stochstream.LinearTrend{Slope: 1, Intercept: -1, Noise: stochstream.BoundedNormal(1, 10)}
	s := &stochstream.LinearTrend{Slope: 1, Intercept: 0, Noise: stochstream.BoundedNormal(2, 15)}

	// Sample 5000 tuples from each stream.
	const n = 5000
	rng := stochstream.NewRNG(42)
	rVals := r.Generate(rng, n)
	sVals := s.Generate(rng, n)

	cfg := stochstream.JoinConfig{
		CacheSize: 10,
		Warmup:    -1, // default: 4x the cache size
		Procs:     [2]stochstream.Process{r, s},
	}

	// HEEB: scores every candidate tuple by its estimated expected benefit
	// under the stream models and discards the lowest.
	heeb := stochstream.NewHEEB(stochstream.HEEBOptions{
		LifetimeEstimate: 3, // trend advances ~2 noise stdevs in 3 steps
	})
	heebRes := stochstream.RunJoin(rVals, sVals, heeb, cfg, 1)

	// RAND: the oblivious baseline.
	randRes := stochstream.RunJoin(rVals, sVals, &stochstream.RandPolicy{}, cfg, 1)

	// OPT-offline: the (unachievable online) upper bound.
	opt := stochstream.OptOfflineJoin(rVals, sVals, cfg.CacheSize, 0)
	optJoins := opt.CountAfter(cfg.EffectiveWarmup() - 1)

	fmt.Println("join results produced from a 10-tuple cache over 5000 arrivals:")
	fmt.Printf("  OPT-offline (upper bound): %d\n", optJoins)
	fmt.Printf("  HEEB                     : %d (%.0f%% of OPT)\n",
		heebRes.Joins, 100*float64(heebRes.Joins)/float64(optJoins))
	fmt.Printf("  RAND                     : %d (%.0f%% of OPT)\n",
		randRes.Joins, 100*float64(randRes.Joins)/float64(optJoins))
}

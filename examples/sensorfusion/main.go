// Sensorfusion: correlate two sensor feeds that measure the same drifting
// phenomenon with different noise levels and report how HEEB divides the
// cache between them — the paper's memory-allocation study (Figures 14,
// 17–18) as an application.
//
// Scenario: two vibration sensors on the same machine shaft emit one reading
// per tick. A maintenance dashboard wants every pair of equal readings
// across the two feeds (an equijoin on the quantized reading). Memory for
// the join state is limited, so replacement policy quality directly controls
// how many correlated pairs the dashboard sees.
package main

import (
	"fmt"

	"stochstream"
)

func run(name string, lagR int, sSigma float64) {
	r := &stochstream.LinearTrend{Slope: 1, Intercept: -lagR, Noise: stochstream.BoundedNormal(1, 15)}
	s := &stochstream.LinearTrend{Slope: 1, Intercept: 0, Noise: stochstream.BoundedNormal(sSigma, 15)}
	const n = 4000
	rng := stochstream.NewRNG(7)
	rVals := r.Generate(rng, n)
	sVals := s.Generate(rng, n)

	cfg := stochstream.JoinConfig{
		CacheSize:      12,
		Warmup:         -1,
		Procs:          [2]stochstream.Process{r, s},
		TrackOccupancy: true,
	}
	heeb := stochstream.NewHEEB(stochstream.HEEBOptions{
		LifetimeEstimate: 1 + sSigma,
	})
	res := stochstream.RunJoin(rVals, sVals, heeb, cfg, 1)

	// Average fraction of the cache HEEB devotes to sensor R after warm-up.
	var frac float64
	count := 0
	for t := cfg.EffectiveWarmup(); t < len(res.OccupancyR); t++ {
		frac += res.OccupancyR[t]
		count++
	}
	frac /= float64(count)

	prob := stochstream.RunJoin(rVals, sVals, &stochstream.ProbPolicy{}, cfg, 1)
	fmt.Printf("%-28s pairs(HEEB)=%4d  pairs(PROB)=%4d  cache share of R=%4.1f%%\n",
		name, res.Joins, prob.Joins, 100*frac)
}

func main() {
	fmt.Println("correlating two vibration sensors through a 12-tuple join cache:")
	run("identical sensors", 0, 1)
	run("sensor R reports 2 ticks late", 2, 1)
	run("sensor R reports 4 ticks late", 4, 1)
	run("sensor S twice as noisy", 0, 2)
	run("sensor S four times as noisy", 0, 4)
	fmt.Println()
	fmt.Println("HEEB gives less cache to the lagging stream (its tuples can no")
	fmt.Println("longer match future arrivals) and to the noisier stream (whose")
	fmt.Println("outlying tuples fall behind the partner's reachable window).")
}

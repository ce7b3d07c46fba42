// Slidingwindow: Section 7 of the paper as a runnable scenario. Under
// sliding-window join semantics, the hardwired heuristics misrank candidate
// tuples — PROB is short-sighted (prefers a high-probability tuple that
// expires immediately) and LIFE is pessimistic (prefers a long-lived tuple
// that almost never joins) — while the window-clipped HEEB orders them
// sensibly. The example first reproduces the paper's x1/x2/x3 ranking
// analytically, then demonstrates the effect end-to-end on windowed streams.
package main

import (
	"fmt"

	"stochstream"
)

func main() {
	analytical()
	fmt.Println()
	endToEnd()
}

// analytical reproduces the Section 7 example: three candidate tuples under
// a stationary partner with join probabilities p and remaining window
// lifetimes l.
func analytical() {
	type cand struct {
		name string
		p    float64
		l    int
	}
	cands := []cand{
		{"x1", 0.50, 1},
		{"x2", 0.49, 50},
		{"x3", 0.01, 51},
	}
	alpha := stochstream.AlphaForLifetime(10)
	fmt.Println("Section 7 example (stationary partner, sliding window):")
	fmt.Printf("  %-4s %-6s %-9s %-12s %-12s %s\n", "", "p", "lifetime", "PROB score", "LIFE score", "window-HEEB")
	for _, c := range cands {
		l := stochstream.LWindow{Inner: stochstream.LExp{Alpha: alpha}, Remaining: c.l}
		var h float64
		for dt := 1; dt <= c.l; dt++ {
			h += c.p * l.At(dt)
		}
		fmt.Printf("  %-4s %-6.2f %-9d %-12.2f %-12.2f %.3f\n",
			c.name, c.p, c.l, c.p, c.p*float64(c.l), h)
	}
	fmt.Println("  PROB keeps x1 over x2 (short-sighted); LIFE keeps x3 over x1")
	fmt.Println("  (pessimistic); window-HEEB ranks x2 > x1 > x3.")
}

// endToEnd joins two stationary streams under a sliding window and shows the
// windowed HEEB outperforming PROB and LIFE.
func endToEnd() {
	// Skewed stationary streams: a few hot values, many cold ones.
	p := stochstream.NewTable(0, []float64{30, 20, 15, 10, 8, 6, 4, 3, 2, 2})
	r := &stochstream.Stationary{P: p}
	s := &stochstream.Stationary{P: p}
	const n = 6000
	rng := stochstream.NewRNG(11)
	rVals := r.Generate(rng, n)
	sVals := s.Generate(rng, n)

	cfg := stochstream.JoinConfig{
		CacheSize: 4,
		Window:    12, // sliding-window semantics
		Warmup:    -1,
		Procs:     [2]stochstream.Process{r, s},
	}
	lifetime := func(now int, tp stochstream.Tuple) int {
		return tp.Arrived + cfg.Window - now
	}

	// LifetimeEstimate defaults to the cache size — with only 4 slots,
	// tuples live a few steps, so α must weigh the near future heavily.
	heeb := stochstream.NewHEEB(stochstream.HEEBOptions{})
	heebRes := stochstream.RunJoin(rVals, sVals, heeb, cfg, 3)
	probRes := stochstream.RunJoin(rVals, sVals, &stochstream.ProbPolicy{Lifetime: lifetime}, cfg, 3)
	lifeRes := stochstream.RunJoin(rVals, sVals, &stochstream.LifePolicy{Lifetime: lifetime}, cfg, 3)
	opt := stochstream.OptOfflineJoin(rVals, sVals, cfg.CacheSize, cfg.Window)

	fmt.Println("windowed join (window 25, cache 4, skewed stationary streams):")
	fmt.Printf("  OPT-offline: %d\n", opt.CountAfter(cfg.EffectiveWarmup()-1))
	fmt.Printf("  HEEB       : %d\n", heebRes.Joins)
	fmt.Printf("  PROB       : %d\n", probRes.Joins)
	fmt.Printf("  LIFE       : %d\n", lifeRes.Joins)
}

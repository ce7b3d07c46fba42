package policy

import (
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func TestBandJoinEndToEnd(t *testing.T) {
	// Trending streams on disjoint parities (R even, S odd): an equijoin can
	// never match, a band join with eps=4 matches constantly.
	r := &process.LinearTrend{Slope: 2, Intercept: 0, Noise: dist.NewPointMass(0)}
	s := &process.LinearTrend{Slope: 2, Intercept: 3, Noise: dist.NewTable(-2, []float64{1, 0, 1, 0, 1})}
	rng := stats.NewRNG(1)
	rv := r.Generate(rng.Split(), 600)
	sv := s.Generate(rng.Split(), 600)
	procs := [2]process.Process{r, s}

	equi := join.Config{CacheSize: 4, Warmup: 0, Procs: procs}
	band := equi
	band.Band = 4
	heq := join.Run(rv, sv, NewHEEB(HEEBOptions{LifetimeEstimate: 4}), equi, stats.NewRNG(2))
	hband := join.Run(rv, sv, NewHEEB(HEEBOptions{LifetimeEstimate: 4}), band, stats.NewRNG(2))
	if heq.Joins > 0 {
		t.Fatalf("equijoin produced %d joins on offset streams", heq.Joins)
	}
	if hband.Joins == 0 {
		t.Fatal("band join produced no results")
	}
	// OPT for the band instance bounds HEEB.
	opt := core.OptOfflineBandJoin(rv, sv, band.CacheSize, band.Band, 0)
	if hband.Joins > opt.Total {
		t.Fatalf("HEEB %d above band OPT %d", hband.Joins, opt.Total)
	}
}

func TestBandHEEBBeatsRandOnNoisyBand(t *testing.T) {
	w := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(2, 12)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(3, 12)},
	}
	rng := stats.NewRNG(9)
	rv := w[0].Generate(rng.Split(), 1500)
	sv := w[1].Generate(rng.Split(), 1500)
	cfg := join.Config{CacheSize: 6, Warmup: -1, Procs: w, Band: 2}
	heeb := join.Run(rv, sv, NewHEEB(HEEBOptions{LifetimeEstimate: 5}), cfg, stats.NewRNG(3))
	rnd := join.Run(rv, sv, &Rand{}, cfg, stats.NewRNG(3))
	if heeb.Joins <= rnd.Joins {
		t.Fatalf("band HEEB %d <= RAND %d", heeb.Joins, rnd.Joins)
	}
}

func TestBandPROBSumsOverBand(t *testing.T) {
	p := &Prob{}
	st := &join.State{
		Time: 4,
		Hists: [2]*process.History{
			process.NewHistory(10, 11, 12, 20, 21), // R history
			process.NewHistory(0, 0, 0, 0, 0),
		},
		Config: join.Config{CacheSize: 2, Band: 1},
	}
	p.Reset(st.Config, stats.NewRNG(1))
	observe(p, []int{10, 11, 12, 20, 21}, []int{0, 0, 0, 0, 0})
	// S tuple with value 11: band {10,11,12} covers 3/5 of R history.
	// S tuple with value 20: band {19,20,21} covers 2/5.
	cands := []join.Tuple{
		{ID: 0, Value: 11, Stream: core.StreamS},
		{ID: 1, Value: 20, Stream: core.StreamS},
	}
	got := p.Evict(st, cands, 1)
	if got[0] != 1 {
		t.Fatalf("PROB evicted %d, want the narrower-band tuple (1)", got[0])
	}
}

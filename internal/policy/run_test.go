package policy_test

import (
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// The tests here run whole simulations through engine.Run, which imports
// this package, so they live in the external test package; export_test.go
// hands them the internals they check.

// forecastHits is the number of scores p has answered from its forecast
// window's memo.
func forecastHits(p *policy.HEEB) int {
	_, _, r := p.Forecasts().Memo(core.StreamR)
	_, _, s := p.Forecasts().Memo(core.StreamS)
	return r + s
}

// lockstep drives a window-path HEEB and its NoMemo oracle through the same
// run and fails on the first score or victim that differs.
type lockstep struct {
	t        *testing.T
	win, ref *policy.HEEB

	decisions    int
	alphaChanges int // decisions that began under another α than the one before
	hitsCompared int // memo hits among compared scores, after the first α change (all of them when α is fixed)
}

func newLockstep(t *testing.T, opts policy.HEEBOptions) *lockstep {
	ref := opts
	ref.NoMemo = true
	return &lockstep{t: t, win: policy.NewHEEB(opts), ref: policy.NewHEEB(ref)}
}

func (l *lockstep) Name() string { return "HEEB" }

func (l *lockstep) Reset(cfg join.Config, rng *stats.RNG) {
	l.win.Reset(cfg, rng)
	l.ref.Reset(cfg, rng)
}

func (l *lockstep) Evict(st *join.State, cands []join.Tuple, n int) []int {
	l.decisions++
	before, alpha := forecastHits(l.win), l.win.Alpha()
	we, re := l.win.Evict(st, cands, n), l.ref.Evict(st, cands, n)
	ws, rs := l.win.Scores(), l.ref.Scores()
	if len(ws) != len(cands) || len(rs) != len(cands) {
		l.t.Fatalf("decision %d: %d and %d scores for %d candidates", l.decisions, len(ws), len(rs), len(cands))
	}
	for i := range rs {
		if ws[i] != rs[i] {
			l.t.Fatalf("decision %d candidate %d: window score %v != nomemo %v", l.decisions, i, ws[i], rs[i])
		}
	}
	if l.win.Alpha() != alpha {
		l.alphaChanges++
	}
	if l.alphaChanges > 0 || !l.win.Opts.Adaptive {
		l.hitsCompared += forecastHits(l.win) - before
	}
	for i := range re {
		if we[i] != re[i] {
			l.t.Fatalf("decision %d: window evicts %v, nomemo %v", l.decisions, we, re)
		}
	}
	return we
}

func TestHEEBWalkH1RunsAndBeatsRand(t *testing.T) {
	procs := [2]process.Process{
		&process.GaussianWalk{Sigma: 1},
		&process.GaussianWalk{Sigma: 1},
	}
	cfg := join.Config{CacheSize: 10, Warmup: -1, Procs: procs}
	rng := stats.NewRNG(3)
	r := procs[0].Generate(rng.Split(), 2000)
	s := procs[1].Generate(rng.Split(), 2000)
	heeb := engine.Run(r, s, policy.NewHEEB(policy.HEEBOptions{}), cfg, stats.NewRNG(1))
	rand := engine.Run(r, s, &policy.Rand{}, cfg, stats.NewRNG(1))
	if heeb.Joins <= rand.Joins {
		t.Fatalf("HEEB = %d joins, RAND = %d; expected HEEB to win", heeb.Joins, rand.Joins)
	}
}

// On TOWER every decision of the default policy — whose trend scores come out
// of the coordinate memo (Corollary 5) — is the NoMemo oracle's, score for
// score. The memo is used, and the noise supports bound it however long the
// run: the trend carries every value out of them.
func TestHEEBValueIncrementalMatchesDirectDecisions(t *testing.T) {
	cfg, _ := policy.TrendConfig(8)
	rng := stats.NewRNG(43)
	r := cfg.Procs[0].Generate(rng.Split(), 500)
	s := cfg.Procs[1].Generate(rng.Split(), 500)
	l := newLockstep(t, policy.HEEBOptions{LifetimeEstimate: 3})
	engine.Run(r, s, l, cfg, stats.NewRNG(7))
	if l.hitsCompared == 0 {
		t.Fatal("no compared score came from the memo")
	}
	er, _, _ := l.win.Forecasts().Memo(core.StreamR)
	es, _, _ := l.win.Forecasts().Memo(core.StreamS)
	if er == 0 || es == 0 || er > 21 || es > 31 {
		t.Fatalf("memo holds %d and %d scores, want 1..21 and 1..31 (the noise supports)", er, es)
	}
	// Reset starts the next run from an empty table.
	l.win.Reset(cfg, stats.NewRNG(7))
	if er, slots, hits := l.win.Forecasts().Memo(core.StreamR); er+slots+hits != 0 {
		t.Fatalf("after Reset the table holds %d scores in %d slots and counts %d hits", er, slots, hits)
	}
}

// A re-derived α retabulates L, and every memoized score was summed under the
// old table: one that survived the change would be stale. Adaptive HEEB on
// TOWER re-derives α at nearly every decision, so scores read from the memo
// after a change are held against the oracle thousands of times.
func TestHEEBAdaptiveMemoMatchesNoMemo(t *testing.T) {
	cfg, _ := policy.TrendConfig(8)
	rng := stats.NewRNG(44)
	r := cfg.Procs[0].Generate(rng.Split(), 2100)
	s := cfg.Procs[1].Generate(rng.Split(), 2100)
	l := newLockstep(t, policy.HEEBOptions{LifetimeEstimate: 3, Adaptive: true})
	engine.Run(r, s, l, cfg, stats.NewRNG(7))
	if l.decisions < 2000 || l.alphaChanges < 100 || l.hitsCompared < 100 {
		t.Fatalf("%d decisions, %d α changes, %d memo hits compared after one: too few to show anything",
			l.decisions, l.alphaChanges, l.hitsCompared)
	}
}

// A model that is neither a trend nor a walk has no coordinate to memoize
// under: AR(1) scores are summed from the window at every decision, and equal
// the oracle's.
func TestHEEBValueIncrementalFallsBackForMarkovStreams(t *testing.T) {
	procs := [2]process.Process{
		&process.AR1{Phi0: 10, Phi1: 0.6, Sigma: 4, Init: 25},
		&process.AR1{Phi0: 10, Phi1: 0.6, Sigma: 4, Init: 25},
	}
	cfg := join.Config{CacheSize: 5, Warmup: 0, Procs: procs}
	rng := stats.NewRNG(3)
	r := procs[0].Generate(rng.Split(), 300)
	s := procs[1].Generate(rng.Split(), 300)
	l := newLockstep(t, policy.HEEBOptions{})
	engine.Run(r, s, l, cfg, stats.NewRNG(1))
	er, _, hr := l.win.Forecasts().Memo(core.StreamR)
	es, _, hs := l.win.Forecasts().Memo(core.StreamS)
	if l.decisions == 0 || er+es+hr+hs != 0 {
		t.Fatalf("%d decisions; memo holds %d+%d scores and answered %d+%d, want none", l.decisions, er, es, hr, hs)
	}
}

func TestHEEBAdaptiveAlphaAdjusts(t *testing.T) {
	cfg, _ := policy.TrendConfig(5)
	p := policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3, Adaptive: true})
	rng := stats.NewRNG(11)
	r := cfg.Procs[0].Generate(rng.Split(), 300)
	s := cfg.Procs[1].Generate(rng.Split(), 300)
	res := engine.Run(r, s, p, cfg, stats.NewRNG(2))
	if res.TotalJoins == 0 {
		t.Fatal("adaptive HEEB produced no joins at all")
	}
	// After the run the tracker has observations and alpha has moved off
	// the prior.
	if p.Tracked() == 0 {
		t.Fatal("lifetime tracker saw no evictions")
	}
	prior := stats.AlphaForLifetime(3)
	if p.Alpha() == prior {
		t.Fatal("alpha never adapted")
	}
}

func TestFlowExpectMatchesOfflineOptimumOnDeterministicStreams(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.IntN(4)
		k := 1 + rng.IntN(2)
		r := make([]int, n)
		s := make([]int, n)
		for i := range r {
			r[i] = rng.IntN(3)
			s[i] = rng.IntN(3)
		}
		procs := [2]process.Process{
			&process.Deterministic{Seq: r},
			&process.Deterministic{Seq: s},
		}
		cfg := join.Config{CacheSize: k, Warmup: 0, Procs: procs}
		fe := &policy.FlowExpect{Lookahead: n}
		got := engine.Run(r, s, fe, cfg, stats.NewRNG(1))
		want := core.OptOfflineJoin(r, s, k, 0)
		if got.TotalJoins != want.Total {
			t.Fatalf("trial %d: FlowExpect %d != OPT %d (r=%v s=%v k=%d)",
				trial, got.TotalJoins, want.Total, r, s, k)
		}
	}
}

// Replaying the offline optimum's schedule through the simulator must
// achieve exactly the flow's result count — the flow solution is a real
// cache trace, not just a bound.
func TestClairvoyantRealizesOptimum(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.IntN(120)
		k := 1 + rng.IntN(5)
		vals := 2 + rng.IntN(6)
		r := make([]int, n)
		s := make([]int, n)
		for i := range r {
			r[i] = rng.IntN(vals)
			s[i] = rng.IntN(vals)
		}
		window := 0
		if rng.IntN(2) == 1 {
			window = 3 + rng.IntN(10)
		}
		cv := &policy.Clairvoyant{R: r, S: s}
		cfg := join.Config{CacheSize: k, Warmup: 0, Window: window}
		res := engine.Run(r, s, cv, cfg, stats.NewRNG(1))
		if res.TotalJoins != cv.Result.Total {
			t.Fatalf("trial %d (n=%d k=%d w=%d): replay %d != flow optimum %d",
				trial, n, k, window, res.TotalJoins, cv.Result.Total)
		}
	}
}

func TestClairvoyantBandJoin(t *testing.T) {
	r := []int{10, 0, 0, 0}
	s := []int{99, 12, 99, 11}
	cv := &policy.Clairvoyant{R: r, S: s}
	cfg := join.Config{CacheSize: 1, Warmup: 0, Band: 2}
	res := engine.Run(r, s, cv, cfg, stats.NewRNG(1))
	// R(10) matches S arrivals 12 (t=1) and 11 (t=3) within band 2.
	if res.TotalJoins != 2 || cv.Result.Total != 2 {
		t.Fatalf("replay %d, optimum %d, want 2", res.TotalJoins, cv.Result.Total)
	}
}

func TestReservoirMaintainsUniformSample(t *testing.T) {
	// Feed arrivals with increasing timestamps; the reservoir keeps a
	// uniform sample over arrival order, so the mean kept arrival time
	// should be near the middle of the run.
	procs := [2]process.Process{
		&process.Stationary{P: dist.NewUniform(0, 99)},
		&process.Stationary{P: dist.NewUniform(0, 99)},
	}
	cfg := join.Config{CacheSize: 20, Warmup: 0, Procs: procs}
	n := 2000
	rng := stats.NewRNG(3)
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	var meanArrived stats.Summary
	for trial := uint64(0); trial < 30; trial++ {
		res := &policy.Reservoir{}
		engine.Run(r, s, res, cfg, stats.NewRNG(trial))
		// Snapshot via a follow-up eviction call is awkward; instead rerun
		// tracking through a wrapper policy below.
		_ = res
		probe := &reservoirProbe{inner: &policy.Reservoir{}}
		engine.Run(r, s, probe, cfg, stats.NewRNG(trial))
		for _, tp := range probe.final {
			meanArrived.Add(float64(tp.Arrived))
		}
	}
	mid := float64(n) / 2
	if meanArrived.Mean() < mid*0.85 || meanArrived.Mean() > mid*1.15 {
		t.Fatalf("mean kept arrival %v, want ~%v (uniform over time)", meanArrived.Mean(), mid)
	}
}

// reservoirProbe records the cache contents at the final eviction.
type reservoirProbe struct {
	inner *policy.Reservoir
	final []join.Tuple
}

func (p *reservoirProbe) Name() string { return "probe" }

func (p *reservoirProbe) Reset(cfg join.Config, rng *stats.RNG) {
	p.inner.Reset(cfg, rng)
	p.final = nil
}

func (p *reservoirProbe) Evict(st *join.State, cands []join.Tuple, n int) []int {
	evict := p.inner.Evict(st, cands, n)
	drop := map[int]bool{}
	for _, i := range evict {
		drop[i] = true
	}
	p.final = p.final[:0]
	for i, c := range cands {
		if !drop[i] {
			p.final = append(p.final, c)
		}
	}
	return evict
}

func TestReservoirLosesToHEEBUnderTrend(t *testing.T) {
	// The related-work claim: sampling is ineffective for MAX-subset.
	cfg, _ := policy.TrendConfig(10)
	cfg.Warmup = -1
	rng := stats.NewRNG(8)
	r := cfg.Procs[0].Generate(rng.Split(), 2500)
	s := cfg.Procs[1].Generate(rng.Split(), 2500)
	heeb := engine.Run(r, s, policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3}), cfg, stats.NewRNG(1))
	sample := engine.Run(r, s, &policy.Reservoir{}, cfg, stats.NewRNG(1))
	if sample.Joins*2 > heeb.Joins {
		t.Fatalf("reservoir %d not far below HEEB %d", sample.Joins, heeb.Joins)
	}
}

func TestReservoirTinyCache(t *testing.T) {
	// Cache of 1 exercises the bump-an-arrival path; the run must satisfy
	// the simulator's eviction-count contract throughout.
	procs := [2]process.Process{
		&process.Stationary{P: dist.NewUniform(0, 4)},
		&process.Stationary{P: dist.NewUniform(0, 4)},
	}
	cfg := join.Config{CacheSize: 1, Warmup: 0, Procs: procs}
	rng := stats.NewRNG(2)
	r := procs[0].Generate(rng.Split(), 500)
	s := procs[1].Generate(rng.Split(), 500)
	engine.Run(r, s, &policy.Reservoir{}, cfg, stats.NewRNG(1)) // must not panic
}

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
	heq := engine.Run(rv, sv, policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 4}), equi, stats.NewRNG(2))
	hband := engine.Run(rv, sv, policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 4}), band, stats.NewRNG(2))
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
	heeb := engine.Run(rv, sv, policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 5}), cfg, stats.NewRNG(3))
	rnd := engine.Run(rv, sv, &policy.Rand{}, cfg, stats.NewRNG(3))
	if heeb.Joins <= rnd.Joins {
		t.Fatalf("band HEEB %d <= RAND %d", heeb.Joins, rnd.Joins)
	}
}

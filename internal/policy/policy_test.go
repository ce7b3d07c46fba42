package policy

import (
	"bytes"
	"reflect"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func mkState(t0 int, rHist, sHist []int, procs [2]process.Process, cfg join.Config) *join.State {
	return &join.State{
		Time:   t0,
		Hists:  [2]*process.History{process.NewHistory(rHist...), process.NewHistory(sHist...)},
		Config: cfg,
	}
}

// observe shows a policy that counts arrivals the histories a test's state was
// built from, step by step, as the operator would have (after Reset).
func observe(p join.ArrivalObserver, rHist, sHist []int) {
	for i := range rHist {
		p.ObserveArrivals(rHist[i], sHist[i])
	}
}

func tup(id, v int, s core.StreamID, arrived int) join.Tuple {
	return join.Tuple{ID: id, Value: v, Stream: s, Arrived: arrived}
}

func TestEvictLowest(t *testing.T) {
	cands := []join.Tuple{tup(0, 1, 0, 0), tup(1, 2, 0, 0), tup(2, 3, 0, 0)}
	got := evictLowest([]float64{0.5, 0.1, 0.9}, cands, 2, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("evictLowest = %v, want [1 0]", got)
	}
	// Ties break by tuple ID (older first).
	got = evictLowest([]float64{0.5, 0.5, 0.5}, cands, 1, nil)
	if got[0] != 0 {
		t.Fatalf("tie-break = %v, want oldest (0)", got)
	}
}

func TestRandValidAndSeeded(t *testing.T) {
	p := &Rand{}
	cands := []join.Tuple{tup(0, 1, 0, 0), tup(1, 2, 1, 0), tup(2, 3, 0, 1), tup(3, 4, 1, 1)}
	st := mkState(1, []int{1, 3}, []int{2, 4}, [2]process.Process{}, join.Config{CacheSize: 2})
	p.Reset(st.Config, stats.NewRNG(5))
	a := p.Evict(st, cands, 2)
	p.Reset(st.Config, stats.NewRNG(5))
	b := p.Evict(st, cands, 2)
	if len(a) != 2 || a[0] == a[1] {
		t.Fatalf("invalid eviction %v", a)
	}
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatal("same seed gave different evictions")
	}
}

func TestRandEvictsExpiredFirst(t *testing.T) {
	expired := map[int]bool{7: true}
	p := &Rand{Lifetime: func(_ int, tp join.Tuple) int {
		if expired[tp.Value] {
			return 0
		}
		return 10
	}}
	cands := []join.Tuple{tup(0, 1, 0, 0), tup(1, 7, 0, 0), tup(2, 3, 1, 1)}
	st := mkState(1, nil, nil, [2]process.Process{}, join.Config{CacheSize: 2})
	for seed := uint64(0); seed < 20; seed++ {
		p.Reset(st.Config, stats.NewRNG(seed))
		got := p.Evict(st, cands, 1)
		if got[0] != 1 {
			t.Fatalf("seed %d: evicted %d, want the expired tuple (1)", seed, got[0])
		}
	}
}

func TestProbEvictsLeastFrequentInPartnerHistory(t *testing.T) {
	p := &Prob{}
	st := mkState(4,
		[]int{10, 10, 10, 11, 12}, // R history: 10 frequent
		[]int{20, 21, 21, 21, 22}, // S history: 21 frequent
		[2]process.Process{}, join.Config{CacheSize: 2})
	p.Reset(st.Config, stats.NewRNG(1))
	observe(p, []int{10, 10, 10, 11, 12}, []int{20, 21, 21, 21, 22})
	// Candidates from S side are scored against R's history; from R side
	// against S's history.
	cands := []join.Tuple{
		tup(0, 10, core.StreamS, 0), // p = 3/5 (R history)
		tup(1, 11, core.StreamS, 1), // p = 1/5
		tup(2, 21, core.StreamR, 2), // p = 3/5 (S history)
		tup(3, 25, core.StreamR, 3), // p = 0
	}
	got := p.Evict(st, cands, 2)
	want := map[int]bool{1: true, 3: true}
	for _, i := range got {
		if !want[i] {
			t.Fatalf("PROB evicted %v, want {1, 3}", got)
		}
	}
}

func TestProbDiscardsFreshArrivalsUnderTrend(t *testing.T) {
	// With an increasing trend, new values have never been seen in the
	// partner history, so PROB discards them — the pathology of Section 6.3.
	p := &Prob{}
	rh := make([]int, 50)
	sh := make([]int, 50)
	for i := range rh {
		rh[i] = i
		sh[i] = i
	}
	st := mkState(49, rh, sh, [2]process.Process{}, join.Config{CacheSize: 2})
	p.Reset(st.Config, stats.NewRNG(1))
	observe(p, rh, sh)
	cands := []join.Tuple{
		tup(0, 40, core.StreamS, 40), // seen in partner history
		tup(1, 55, core.StreamS, 49), // ahead of the trend: never seen
	}
	got := p.Evict(st, cands, 1)
	if got[0] != 1 {
		t.Fatalf("PROB evicted %d, want the fresh arrival", got[0])
	}
}

func TestLifeWeighsLifetime(t *testing.T) {
	// Two tuples equally frequent; LIFE keeps the longer-lived one.
	life := func(_ int, tp join.Tuple) int { return tp.Value } // lifetime = value, for the test
	p := &Life{Lifetime: life}
	st := mkState(3, []int{5, 30, 5, 30}, []int{0, 0, 0, 0}, [2]process.Process{}, join.Config{CacheSize: 1})
	p.Reset(st.Config, stats.NewRNG(1))
	observe(p, []int{5, 30, 5, 30}, []int{0, 0, 0, 0})
	cands := []join.Tuple{
		tup(0, 5, core.StreamS, 0),  // freq 1/2, lifetime 5
		tup(1, 30, core.StreamS, 1), // freq 1/2, lifetime 30
	}
	got := p.Evict(st, cands, 1)
	if got[0] != 0 {
		t.Fatalf("LIFE evicted %d, want the short-lived tuple", got[0])
	}
}

func TestLifeRequiresLifetime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LIFE without lifetime did not panic")
		}
	}()
	(&Life{}).Reset(join.Config{}, stats.NewRNG(1))
}

func trendConfig(cache int) (join.Config, [2]process.Process) {
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(1, 10)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 15)},
	}
	return join.Config{CacheSize: cache, Warmup: 0, Procs: procs}, procs
}

func TestHEEBDirectPrefersUpstreamTuples(t *testing.T) {
	cfg, procs := trendConfig(2)
	p := NewHEEB(HEEBOptions{LifetimeEstimate: 3})
	p.Reset(cfg, stats.NewRNG(1))
	t0 := 50
	rh := make([]int, t0+1)
	sh := make([]int, t0+1)
	for i := range rh {
		rh[i], sh[i] = i-1, i
	}
	st := &join.State{Time: t0, Hists: [2]*process.History{process.NewHistory(rh...), process.NewHistory(sh...)}, Config: cfg}
	_ = procs
	cands := []join.Tuple{
		tup(0, t0-12, core.StreamS, t0-12), // behind R's window: near-zero H
		tup(1, t0, core.StreamS, t0),       // near the trend: high H
		tup(2, t0+3, core.StreamR, t0),     // slightly ahead: decent H
	}
	got := p.Evict(st, cands, 1)
	if got[0] != 0 {
		t.Fatalf("HEEB evicted %d, want the expired tuple 0", got[0])
	}
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
	heeb := join.Run(r, s, NewHEEB(HEEBOptions{}), cfg, stats.NewRNG(1))
	rand := join.Run(r, s, &Rand{}, cfg, stats.NewRNG(1))
	if heeb.Joins <= rand.Joins {
		t.Fatalf("HEEB = %d joins, RAND = %d; expected HEEB to win", heeb.Joins, rand.Joins)
	}
}

// On TOWER every decision of the default policy — whose trend scores come out
// of the coordinate memo (Corollary 5) — is the NoMemo oracle's, score for
// score. The memo is used, and the noise supports bound it however long the
// run: the trend carries every value out of them.
func TestHEEBValueIncrementalMatchesDirectDecisions(t *testing.T) {
	cfg, _ := trendConfig(8)
	rng := stats.NewRNG(43)
	r := cfg.Procs[0].Generate(rng.Split(), 500)
	s := cfg.Procs[1].Generate(rng.Split(), 500)
	l := newLockstep(t, HEEBOptions{LifetimeEstimate: 3})
	join.Run(r, s, l, cfg, stats.NewRNG(7))
	if l.hitsCompared == 0 {
		t.Fatal("no compared score came from the memo")
	}
	er, _, _ := l.win.fc.Memo(core.StreamR)
	es, _, _ := l.win.fc.Memo(core.StreamS)
	if er == 0 || es == 0 || er > 21 || es > 31 {
		t.Fatalf("memo holds %d and %d scores, want 1..21 and 1..31 (the noise supports)", er, es)
	}
	// Reset starts the next run from an empty table.
	l.win.Reset(cfg, stats.NewRNG(7))
	if er, slots, hits := l.win.fc.Memo(core.StreamR); er+slots+hits != 0 {
		t.Fatalf("after Reset the table holds %d scores in %d slots and counts %d hits", er, slots, hits)
	}
}

// A re-derived α retabulates L, and every memoized score was summed under the
// old table: one that survived the change would be stale. Adaptive HEEB on
// TOWER re-derives α at nearly every decision, so scores read from the memo
// after a change are held against the oracle thousands of times.
func TestHEEBAdaptiveMemoMatchesNoMemo(t *testing.T) {
	cfg, _ := trendConfig(8)
	rng := stats.NewRNG(44)
	r := cfg.Procs[0].Generate(rng.Split(), 2100)
	s := cfg.Procs[1].Generate(rng.Split(), 2100)
	l := newLockstep(t, HEEBOptions{LifetimeEstimate: 3, Adaptive: true})
	join.Run(r, s, l, cfg, stats.NewRNG(7))
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
	l := newLockstep(t, HEEBOptions{})
	join.Run(r, s, l, cfg, stats.NewRNG(1))
	er, _, hr := l.win.fc.Memo(core.StreamR)
	es, _, hs := l.win.fc.Memo(core.StreamS)
	if l.decisions == 0 || er+es+hr+hs != 0 {
		t.Fatalf("%d decisions; memo holds %d+%d scores and answered %d+%d, want none", l.decisions, er, es, hr, hs)
	}
}

func TestHEEBAdaptiveAlphaAdjusts(t *testing.T) {
	cfg, _ := trendConfig(5)
	p := NewHEEB(HEEBOptions{LifetimeEstimate: 3, Adaptive: true})
	rng := stats.NewRNG(11)
	r := cfg.Procs[0].Generate(rng.Split(), 300)
	s := cfg.Procs[1].Generate(rng.Split(), 300)
	res := join.Run(r, s, p, cfg, stats.NewRNG(2))
	if res.TotalJoins == 0 {
		t.Fatal("adaptive HEEB produced no joins at all")
	}
	// After the run the tracker has observations and alpha has moved off
	// the prior.
	if p.tracker.N() == 0 {
		t.Fatal("lifetime tracker saw no evictions")
	}
	prior := stats.AlphaForLifetime(3)
	if p.alpha == prior {
		t.Fatal("alpha never adapted")
	}
}

func TestHEEBWindowClipsScores(t *testing.T) {
	cfg, _ := trendConfig(2)
	cfg.Window = 3
	p := NewHEEB(HEEBOptions{LifetimeEstimate: 3})
	p.Reset(cfg, stats.NewRNG(1))
	t0 := 30
	rh := make([]int, t0+1)
	sh := make([]int, t0+1)
	for i := range rh {
		rh[i], sh[i] = i-1, i
	}
	st := &join.State{Time: t0, Hists: [2]*process.History{process.NewHistory(rh...), process.NewHistory(sh...)}, Config: cfg}
	// Same value, but one arrived long ago (outside the window).
	inWin := tup(0, t0+1, core.StreamS, t0)
	expired := tup(1, t0+1, core.StreamS, t0-10)
	got := p.Evict(st, []join.Tuple{inWin, expired}, 1)
	if got[0] != 1 {
		t.Fatalf("window HEEB evicted %d, want the expired tuple", got[0])
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
		fe := &FlowExpect{Lookahead: n}
		got := join.Run(r, s, fe, cfg, stats.NewRNG(1))
		want := core.OptOfflineJoin(r, s, k, 0)
		if got.TotalJoins != want.Total {
			t.Fatalf("trial %d: FlowExpect %d != OPT %d (r=%v s=%v k=%d)",
				trial, got.TotalJoins, want.Total, r, s, k)
		}
	}
}

func TestFlowExpectRequiresModels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlowExpect without models did not panic")
		}
	}()
	(&FlowExpect{}).Reset(join.Config{CacheSize: 1}, stats.NewRNG(1))
}

func TestPolicyNames(t *testing.T) {
	if (&Rand{}).Name() != "RAND" || (&Prob{}).Name() != "PROB" ||
		(&Life{}).Name() != "LIFE" || (&FlowExpect{}).Name() != "FLOWEXPECT" ||
		NewHEEB(HEEBOptions{}).Name() != "HEEB" {
		t.Fatal("a policy name is wrong")
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
		cv := &Clairvoyant{R: r, S: s}
		cfg := join.Config{CacheSize: k, Warmup: 0, Window: window}
		res := join.Run(r, s, cv, cfg, stats.NewRNG(1))
		if res.TotalJoins != cv.Result.Total {
			t.Fatalf("trial %d (n=%d k=%d w=%d): replay %d != flow optimum %d",
				trial, n, k, window, res.TotalJoins, cv.Result.Total)
		}
	}
}

func TestClairvoyantBandJoin(t *testing.T) {
	r := []int{10, 0, 0, 0}
	s := []int{99, 12, 99, 11}
	cv := &Clairvoyant{R: r, S: s}
	cfg := join.Config{CacheSize: 1, Warmup: 0, Band: 2}
	res := join.Run(r, s, cv, cfg, stats.NewRNG(1))
	// R(10) matches S arrivals 12 (t=1) and 11 (t=3) within band 2.
	if res.TotalJoins != 2 || cv.Result.Total != 2 {
		t.Fatalf("replay %d, optimum %d, want 2", res.TotalJoins, cv.Result.Total)
	}
}

func TestClairvoyantRequiresStreams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing streams did not panic")
		}
	}()
	(&Clairvoyant{}).Reset(join.Config{CacheSize: 1}, stats.NewRNG(1))
}

func TestClairvoyantMetadata(t *testing.T) {
	cv := &Clairvoyant{R: []int{1, 2}, S: []int{2, 1}}
	if cv.Name() != "OPT-OFFLINE" {
		t.Fatalf("Name = %q", cv.Name())
	}
	cv.EagerEvict() // marker method; must exist for the simulator contract
	var _ join.EagerEvictor = cv
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
		res := &Reservoir{}
		join.Run(r, s, res, cfg, stats.NewRNG(trial))
		// Snapshot via a follow-up eviction call is awkward; instead rerun
		// tracking through a wrapper policy below.
		_ = res
		probe := &reservoirProbe{inner: &Reservoir{}}
		join.Run(r, s, probe, cfg, stats.NewRNG(trial))
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
	inner *Reservoir
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
	cfg, _ := trendConfig(10)
	cfg.Warmup = -1
	rng := stats.NewRNG(8)
	r := cfg.Procs[0].Generate(rng.Split(), 2500)
	s := cfg.Procs[1].Generate(rng.Split(), 2500)
	heeb := join.Run(r, s, NewHEEB(HEEBOptions{LifetimeEstimate: 3}), cfg, stats.NewRNG(1))
	sample := join.Run(r, s, &Reservoir{}, cfg, stats.NewRNG(1))
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
	join.Run(r, s, &Reservoir{}, cfg, stats.NewRNG(1)) // must not panic
}

// TestProbSnapshotDeterministic: a snapshot is a function of the state. The
// counts live in Go maps, which gob would write in iteration order; 100
// snapshots of one PROB (and one LIFE behind a ladder) must be the same
// bytes, and restore into the same counts.
func TestProbSnapshotDeterministic(t *testing.T) {
	prob := &Prob{}
	lad := &Ladder{Rungs: []join.Policy{&Life{Lifetime: func(int, join.Tuple) int { return 1 }}, &Lfixed{}}}
	rng := stats.NewRNG(4)
	for _, p := range []join.Policy{prob, lad} {
		p.Reset(join.Config{CacheSize: 4}, stats.NewRNG(1))
		for i := 0; i < 2000; i++ {
			p.(join.ArrivalObserver).ObserveArrivals(rng.IntN(300)-150, rng.IntN(300))
		}
		snap := p.(join.StateSnapshotter)
		first, err := snap.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 100; i++ {
			again, err := snap.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, first) {
				t.Fatalf("%s: snapshot %d of one state differs from the first", p.Name(), i)
			}
		}
	}
	restored := &Prob{}
	restored.Reset(join.Config{CacheSize: 4}, stats.NewRNG(1))
	restored.ObserveArrivals(7, 7) // replaced, not added to
	snap, _ := prob.SnapshotState()
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.counts, prob.counts) {
		t.Fatal("the restored counts differ from the snapshotted ones")
	}
}

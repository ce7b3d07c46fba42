package policy

import (
	"bytes"
	"math"
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

	// A non-finite score orders nothing, but the answer is still n distinct
	// in-range victims: the engine refuses any other answer with a panic.
	nan, inf := math.NaN(), math.Inf(1)
	six := []join.Tuple{tup(0, 1, 0, 0), tup(1, 2, 0, 0), tup(2, 3, 1, 0), tup(3, 4, 1, 1), tup(4, 5, 0, 1), tup(5, 6, 1, 1)}
	for _, tc := range []struct {
		name   string
		scores []float64
	}{
		{"nan-first", []float64{nan, 0.2, 0.1, 0.4, 0.3, 0.5}},
		{"nan-inside", []float64{0.2, 0.1, nan, 0.4, nan, 0.5}},
		{"all-nan", []float64{nan, nan, nan, nan, nan, nan}},
		{"+inf", []float64{0.2, inf, 0.1, inf, 0.3, 0.5}},
		{"-inf", []float64{0.2, -inf, 0.1, -inf, 0.3, -inf}},
		{"mixed", []float64{nan, inf, -inf, nan, -inf, inf}},
	} {
		for _, n := range []int{1, 2, 3, 5} {
			got := evictLowest(tc.scores, six, n, nil)
			seen := map[int]bool{}
			for _, i := range got {
				if i < 0 || i >= len(six) || seen[i] {
					t.Fatalf("%s, n=%d: evictLowest = %v, want %d distinct indices in [0, %d)", tc.name, n, got, n, len(six))
				}
				seen[i] = true
			}
			if len(got) != n {
				t.Fatalf("%s, n=%d: evictLowest = %v, want %d victims", tc.name, n, got, n)
			}
		}
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

func TestFlowExpectRequiresModels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlowExpect without models did not panic")
		}
	}()
	(&FlowExpect{}).Reset(join.Config{CacheSize: 1}, stats.NewRNG(1))
}

// FlowExpect's scores are core.FlowDecision.Benefit mapped back from the
// flow's ID order to the candidates': each is Σ_{off=1..l} of the partner's
// off-step forecast at the candidate's value, bit for bit, with the offsets
// past a sliding window adding nothing. An impossible value scores 0, and no
// score leaves [0, l].
func TestFlowExpectScoresAreArcBenefits(t *testing.T) {
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(1, 10)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 15)},
	}
	const l, now = 4, 19
	rng := stats.NewRNG(13)
	hists := [2]*process.History{
		process.NewHistory(procs[0].Generate(rng.Split(), now+1)...),
		process.NewHistory(procs[1].Generate(rng.Split(), now+1)...),
	}
	// Listed out of ID order, as an operator lists its cache by slot.
	cands := []join.Tuple{
		tup(4, now+1, core.StreamS, now),
		tup(0, now+2, core.StreamR, now-3),
		tup(3, -999, core.StreamR, now-9), // impossible value
		tup(1, now+3, core.StreamS, now-2),
		tup(2, now, core.StreamR, now-1),
	}
	for _, window := range []int{0, 5} {
		cfg := join.Config{CacheSize: 3, Window: window, Procs: procs}
		fe := &FlowExpect{Lookahead: l}
		fe.Reset(cfg, stats.NewRNG(1))
		fe.Evict(&join.State{Time: now, Hists: hists, Config: cfg}, cands, 2)
		fc := core.NewForecastCache(procs, hists)
		scores, nonZero := fe.Scores(), 0
		if len(scores) != len(cands) {
			t.Fatalf("window %d: %d scores for %d candidates", window, len(scores), len(cands))
		}
		for i, c := range cands {
			var want float64
			for off := 1; off <= l; off++ {
				if window > 0 && now-c.Arrived+off > window {
					break
				}
				want += fc.At(c.Stream.Partner(), off).Prob(c.Value)
			}
			if math.Float64bits(scores[i]) != math.Float64bits(want) {
				t.Errorf("window %d: candidate %d scored %v, want the arc benefits' sum %v", window, i, scores[i], want)
			}
			if scores[i] < 0 || scores[i] > l {
				t.Errorf("window %d: candidate %d scored %v, outside [0, %d]", window, i, scores[i], l)
			}
			if scores[i] != 0 {
				nonZero++
			}
		}
		if scores[2] != 0 || nonZero < 3 {
			t.Errorf("window %d: scores %v: want 0 for the impossible value and at least 3 others non-zero", window, scores)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if (&Rand{}).Name() != "RAND" || (&Prob{}).Name() != "PROB" ||
		(&Life{}).Name() != "LIFE" || (&FlowExpect{}).Name() != "FLOWEXPECT" ||
		NewHEEB(HEEBOptions{}).Name() != "HEEB" {
		t.Fatal("a policy name is wrong")
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

// TestProbSnapshotDeterministic: a snapshot is a function of the state. The
// counts live in Go maps, which gob would write in iteration order; 100
// snapshots of one PROB (and one LIFE) must be the same bytes, and restore
// into the same counts.
func TestProbSnapshotDeterministic(t *testing.T) {
	prob := &Prob{}
	life := &Life{Lifetime: func(int, join.Tuple) int { return 1 }}
	rng := stats.NewRNG(4)
	for _, p := range []join.Policy{prob, life} {
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

// TestReservoirRestoreRefusesNegativeSeen: no run counts a negative number
// of tuples seen, and a reservoir restored with one would admit every
// arrival until the count passed k. A snapshot that says so is refused, and
// the refusal leaves the policy's RNG and count as they were.
func TestReservoirRestoreRefusesNegativeSeen(t *testing.T) {
	p := &Reservoir{}
	p.Reset(join.Config{CacheSize: 4}, stats.NewRNG(1))
	p.seen = 9
	rngBefore, err := p.rng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other, err := stats.NewRNG(2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := gobEncode(reservoirWire{RNG: other, Seen: -5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreState(forged); err == nil {
		t.Fatal("a snapshot with a negative count of tuples seen restored")
	}
	rngAfter, err := p.rng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rngAfter, rngBefore) || p.seen != 9 {
		t.Fatalf("the refused restore changed the policy: seen %d, RNG replaced %t", p.seen, !bytes.Equal(rngAfter, rngBefore))
	}
}

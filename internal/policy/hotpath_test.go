package policy

import (
	"sort"
	"testing"
	"testing/quick"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// evictLowestSort is the seed implementation of victim selection — a full
// stable sort — kept as the reference the heap-based evictLowest is checked
// against.
func evictLowestSort(scores []float64, cands []join.Tuple, n int) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return cands[idx[a]].ID < cands[idx[b]].ID
	})
	if n > len(idx) {
		n = len(idx)
	}
	return append([]int(nil), idx[:n]...)
}

// Property: the heap-based top-k selection returns exactly the full sort's
// first n entries, in the same order, across random score vectors with
// plenty of ties.
func TestEvictLowestMatchesSortReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := 1 + rng.IntN(40)
		n := rng.IntN(m + 2) // occasionally n > m
		cands := make([]join.Tuple, m)
		scores := make([]float64, m)
		for i := range cands {
			cands[i] = join.Tuple{ID: i, Value: rng.IntN(10), Arrived: i / 2}
			// Coarse quantization forces frequent score ties.
			scores[i] = float64(rng.IntN(5))
		}
		got := evictLowest(scores, cands, n)
		want := evictLowestSort(scores, cands, n)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// heebDecision builds a mid-run decision state: populated histories and a
// candidate set drawn from both streams.
func heebDecision(t *testing.T, seed uint64, window, band, n int) (*join.State, []join.Tuple) {
	t.Helper()
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(2, 9)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 11)},
	}
	rng := stats.NewRNG(seed)
	hists := [2]*process.History{
		process.NewHistory(procs[0].Generate(rng.Split(), 60)...),
		process.NewHistory(procs[1].Generate(rng.Split(), 60)...),
	}
	st := &join.State{
		Time:   59,
		Hists:  hists,
		Config: join.Config{CacheSize: n - 2, Window: window, Band: band, Procs: procs},
		RNG:    stats.NewRNG(seed + 1),
	}
	cands := make([]join.Tuple, n)
	for i := range cands {
		cands[i] = join.Tuple{
			ID:      i,
			Value:   40 + rng.IntN(30),
			Stream:  core.StreamID(i % 2),
			Arrived: 30 + rng.IntN(30),
		}
	}
	return st, cands
}

// The memoized scorer (forecast cache + L table) must score and evict
// bitwise-identically to the seed path (NoMemo) across window/band configs
// and scoring modes.
func TestHEEBMemoMatchesNoMemo(t *testing.T) {
	for _, tc := range []struct {
		name         string
		window, band int
		mode         HEEBMode
		prefilter    bool
	}{
		{"direct-equi", 0, 0, HEEBDirect, false},
		{"direct-band", 0, 3, HEEBDirect, false},
		{"direct-window", 24, 0, HEEBDirect, false},
		{"direct-window-band", 16, 2, HEEBDirect, false},
		{"incremental", 0, 1, HEEBIncremental, false},
		{"value-incremental", 0, 0, HEEBValueIncremental, false},
		{"direct-prefilter", 0, 0, HEEBDirect, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, cands := heebDecision(t, 11, tc.window, tc.band, 34)
			mk := func(noMemo bool) *HEEB {
				p := NewHEEB(HEEBOptions{
					Mode:               tc.mode,
					LifetimeEstimate:   6,
					DominancePrefilter: tc.prefilter,
					NoMemo:             noMemo,
				})
				p.Reset(st.Config, stats.NewRNG(3))
				return p
			}
			opt, ref := mk(false), mk(true)
			optScores := opt.ScoreCandidates(st, cands)
			refScores := ref.ScoreCandidates(st, cands)
			for i := range cands {
				if optScores[i] != refScores[i] {
					t.Fatalf("cand %d: memo score %v != reference %v", i, optScores[i], refScores[i])
				}
			}
			optEvict := opt.Evict(st, cands, 4)
			refEvict := ref.Evict(st, cands, 4)
			if len(optEvict) != len(refEvict) {
				t.Fatalf("evict lengths differ: %v vs %v", optEvict, refEvict)
			}
			for i := range optEvict {
				if optEvict[i] != refEvict[i] {
					t.Fatalf("evict[%d]: memo %d != reference %d", i, optEvict[i], refEvict[i])
				}
			}
		})
	}
}

// advancing returns a function that moves a decision state one step forward
// the way an operator does between decisions: one observation per stream,
// the clock, and the two oldest candidates replaced by the arrivals.
func advancing(st *join.State, cands []join.Tuple, rng *stats.RNG) func() {
	nextID := len(cands)
	return func() {
		st.Time++
		copy(cands, cands[2:])
		for s := 0; s < 2; s++ {
			lt := st.Config.Procs[s].(*process.LinearTrend)
			v := lt.TrendAt(st.Time) + dist.Sample(lt.Noise, rng.Float64())
			st.Hists[s].Append(v)
			cands[len(cands)-2+s] = join.Tuple{ID: nextID, Value: v, Stream: core.StreamID(s), Arrived: st.Time}
			nextID++
		}
	}
}

// A steady-state decision on trend models slides both forecast windows by one
// step and scores out of them: what it may allocate is the two views the
// models' Forecast calls return for the new tail entries, and the victim
// slice it hands back.
func TestHEEBSteadyStateEvictAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		window, band int
	}{{"equi", 0, 0}, {"band-window", 40, 2}} {
		st, cands := heebDecision(t, 17, tc.window, tc.band, 66)
		p := NewHEEB(HEEBOptions{LifetimeEstimate: 64})
		p.Reset(st.Config, stats.NewRNG(3))
		step := advancing(st, cands, stats.NewRNG(5))
		for i := 0; i < 50; i++ { // fill the windows, the score buffer and the histories' slack
			step()
			p.Evict(st, cands, 2)
		}
		if got := testing.AllocsPerRun(200, func() {
			step()
			p.Evict(st, cands, 2)
		}); got > 3 {
			t.Errorf("%s: steady-state Evict allocates %v times, want <= 3", tc.name, got)
		}
		// Without a step in between nothing is forecast at all.
		if got := testing.AllocsPerRun(200, func() { p.Evict(st, cands, 2) }); got > 1 {
			t.Errorf("%s: repeated Evict allocates %v times, want <= 1", tc.name, got)
		}
	}
}

// Time-incremental scoring folds one Corollary 3 step per elapsed time step
// into every cached tuple's score; each such step may allocate the prefix
// view it conditions on and the forecast it reads, not a copy of the history.
func TestHEEBIncrementalCatchUpAllocs(t *testing.T) {
	st, cands := heebDecision(t, 29, 0, 0, 34)
	p := NewHEEB(HEEBOptions{Mode: HEEBIncremental, LifetimeEstimate: 16})
	p.Reset(st.Config, stats.NewRNG(3))
	step := advancing(st, cands, stats.NewRNG(5))
	for i := 0; i < 50; i++ {
		step()
		p.Evict(st, cands, 2)
	}
	const skipped = 8 // steps between decisions, so every kept tuple catches up 8 steps
	got := testing.AllocsPerRun(50, func() {
		for i := 0; i < skipped; i++ {
			step()
		}
		p.Evict(st, cands, 2)
	})
	// Per decision: the candidates that survive the skipped arrivals catch up
	// `skipped` steps each at <= 2 allocations a step; arrivals are scored
	// directly out of the window.
	kept := len(cands) - 2*skipped
	if limit := float64(kept*skipped*2 + 4*skipped + 8); got > limit {
		t.Errorf("incremental Evict after %d skipped steps allocates %v times, want <= %v", skipped, got, limit)
	}
}

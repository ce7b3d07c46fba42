package engine

import (
	"bytes"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// scoreTap records, for every decision, the scores HEEB compares and the
// victims it picks, so two operators can be held equal decision by decision
// rather than only by the pairs they emit.
type scoreTap struct {
	*policy.HEEB
	decisions int
	scores    []float64
	evict     []int
	memoHits  int // how many of the recorded scores, over the run, came out of the window's memo
}

func (p *scoreTap) Evict(st *join.State, cands []join.Tuple, n int) []int {
	p.decisions++
	before := p.hits()
	ev := p.HEEB.Evict(st, cands, n)
	p.memoHits += p.hits() - before
	p.scores = append(p.scores[:0], p.HEEB.Scores()...)
	p.evict = append(p.evict[:0], ev...)
	return ev
}

func (p *scoreTap) hits() int {
	fc := p.HEEB.Forecasts()
	if fc == nil {
		return 0
	}
	_, _, r := fc.Memo(core.StreamR)
	_, _, s := fc.Memo(core.StreamS)
	return r + s
}

// windowModels is one pair of stream models per Process kind (and per shape
// of forecast the window treats differently): each pair puts the two streams
// close enough that tuples do join, so scores are not all zero.
func windowModels(n int) map[string]func() [2]process.Process {
	triangle := func(t int) int {
		if t %= 40; t > 20 {
			return 40 - t
		}
		return t
	}
	chain := [][]float64{
		{0.6, 0.4, 0, 0, 0, 0},
		{0.3, 0.4, 0.3, 0, 0, 0},
		{0, 0.3, 0.4, 0.3, 0, 0},
		{0, 0, 0.3, 0.4, 0.3, 0},
		{0, 0, 0, 0.3, 0.4, 0.3},
		{0, 0, 0, 0, 0.4, 0.6},
	}
	pair := func(mk func(lag int) process.Process) func() [2]process.Process {
		return func() [2]process.Process { return [2]process.Process{mk(0), mk(1)} }
	}
	gaussian := func(drift float64) func() [2]process.Process {
		return pair(func(int) process.Process { return &process.GaussianWalk{Drift: drift, Sigma: 1.5, Init: 10} })
	}
	return map[string]func() [2]process.Process{
		"deterministic": pair(func(lag int) process.Process {
			// Shorter than the run, so forecasts past the script's end occur.
			rng, seq := stats.NewRNG(uint64(5+lag)), make([]int, n*3/4)
			for i := range seq {
				seq[i] = rng.IntN(12)
			}
			return &process.Deterministic{Seq: seq}
		}),
		"stationary": pair(func(lag int) process.Process {
			return &process.Stationary{P: dist.NewMixture(
				[]dist.PMF{dist.NewUniform(0, 9+lag), dist.Shift(dist.BoundedNormal(2, 6), 5)}, []float64{1, 2})}
		}),
		"trend-normal": pair(func(lag int) process.Process {
			return &process.LinearTrend{Slope: 1, Intercept: -lag, Noise: dist.BoundedNormal(2, 9+lag)}
		}),
		"trend-uniform-down": pair(func(lag int) process.Process {
			return &process.LinearTrend{Slope: -2, Intercept: 2 * lag, Noise: dist.NewUniform(-7, 7+lag)}
		}),
		"general-trend": pair(func(lag int) process.Process {
			return &process.GeneralTrend{F: func(t int) int { return triangle(t - lag) }, Noise: dist.BoundedNormal(1.5, 5)}
		}),
		"random-walk": pair(func(int) process.Process {
			return &process.RandomWalk{Step: dist.NewTable(-1, []float64{0.3, 0.3, 0.4}), Init: 3}
		}),
		"gaussian-walk":            gaussian(0),
		"gaussian-walk-drift":      gaussian(1),
		"gaussian-walk-frac-drift": gaussian(0.3),
		"ar1": pair(func(int) process.Process {
			return &process.AR1{Phi0: 8, Phi1: 0.6, Sigma: 0.8, Init: 20}
		}),
		"markov": pair(func(lag int) process.Process {
			m, err := process.NewMarkovChain(10, chain, 12+lag)
			if err != nil {
				panic(err)
			}
			return m
		}),
	}
}

// A forecast window that goes stale — an entry kept across a decision it no
// longer describes — shows up as a score that differs from the NoMemo path,
// which derives every forecast from the model at every decision. Each model
// kind runs ≥2k decisions under four join configurations with every event
// that moves the histories other than by one step: a checkpoint round trip
// and a restore to an earlier step.
//
// Trends and walks are also scored out of the window's memo, and a stale memo
// entry shows up the same way — provided memoized scores are among the ones
// compared, which each such model must show wherever sums are unclipped; under
// "adaptive" α moves at every decision, so those are scores memoized since the
// last retabulation of L.
func TestWindowMatchesNoMemoEveryModel(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-decision differential per model and configuration")
	}
	const n = 1500
	const ckptAt, roundTripAt, rewindAt = 500, 800, 1300
	for name, models := range windowModels(n) {
		for _, tc := range []struct {
			name     string
			cfg      Config
			adaptive bool
		}{
			{"equi", Config{CacheSize: 8}, false},
			{"band", Config{CacheSize: 8, Band: 2}, false},
			{"window", Config{CacheSize: 8, Window: 9}, false},
			{"adaptive", Config{CacheSize: 8}, true},
		} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				gen := models()
				rng := stats.NewRNG(41)
				r, s := gen[0].Generate(rng.Split(), n), gen[1].Generate(rng.Split(), n)
				mk := func(noMemo bool) (*Join, *scoreTap) {
					tap := &scoreTap{HEEB: policy.NewHEEB(policy.HEEBOptions{
						LifetimeEstimate: 3, Adaptive: tc.adaptive, NoMemo: noMemo,
					})}
					cfg := tc.cfg
					cfg.Procs, cfg.Policy, cfg.Seed = models(), tap, 9
					j, err := NewJoin(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return j, tap
				}
				win, winTap := mk(false)
				ref, refTap := mk(true)
				both := func(what string, f func(j *Join) error) {
					t.Helper()
					for _, j := range []*Join{win, ref} {
						if err := f(j); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					}
				}
				var early [2]bytes.Buffer
				rewound := false
				for i := 0; i < n; i++ {
					switch {
					case i == ckptAt && !rewound:
						if err := win.Checkpoint(&early[0]); err != nil {
							t.Fatal(err)
						}
						if err := ref.Checkpoint(&early[1]); err != nil {
							t.Fatal(err)
						}
					case i == roundTripAt:
						both("checkpoint round trip", func(j *Join) error {
							var buf bytes.Buffer
							if err := j.Checkpoint(&buf); err != nil {
								return err
							}
							return j.Restore(&buf)
						})
					case i == rewindAt && !rewound:
						if err := win.Restore(&early[0]); err != nil {
							t.Fatal(err)
						}
						if err := ref.Restore(&early[1]); err != nil {
							t.Fatal(err)
						}
						rewound = true
						i = ckptAt
					}
					pw := win.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
					pr := ref.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
					if !pairsEqual(pw, pr) {
						t.Fatalf("step %d pairs diverge:\n  window %v\n  nomemo %v", i, pw, pr)
					}
					if winTap.decisions != refTap.decisions {
						t.Fatalf("step %d: %d decisions vs %d", i, winTap.decisions, refTap.decisions)
					}
					for k := range refTap.scores {
						if winTap.scores[k] != refTap.scores[k] {
							t.Fatalf("step %d candidate %d: window score %v != nomemo %v", i, k, winTap.scores[k], refTap.scores[k])
						}
					}
					for k := range refTap.evict {
						if winTap.evict[k] != refTap.evict[k] {
							t.Fatalf("step %d: window evicts %v, nomemo %v", i, winTap.evict, refTap.evict)
						}
					}
				}
				if !snapshotsEqual(win.Snapshot(), ref.Snapshot()) {
					t.Fatalf("final caches diverge:\n  window %v\n  nomemo %v", win.Snapshot(), ref.Snapshot())
				}
				if winTap.decisions < 2000 {
					t.Fatalf("only %d decisions", winTap.decisions)
				}
				_, walk := gen[0].(process.Incremental)
				_, trend := gen[0].(*process.LinearTrend)
				if memo := (walk || trend) && tc.cfg.Window == 0; memo != (winTap.memoHits > 0) {
					t.Fatalf("%d compared scores came out of the memo; has a memo: %v", winTap.memoHits, memo)
				}
			})
		}
	}
}

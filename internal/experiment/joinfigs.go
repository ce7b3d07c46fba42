package experiment

import (
	"fmt"

	"stochstream/internal/core"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// joinAverager runs a policy constructor over several generated runs of a
// workload and reports the mean post-warm-up join count, mirroring the
// paper's measurement protocol (Section 6.2).
type joinAverager struct {
	w      workload.JoinWorkload
	cfg    join.Config
	runs   int
	length int
	seed   uint64
	// streams are generated once per run and shared by all policies.
	rs, ss [][]int
}

func newJoinAverager(w workload.JoinWorkload, cacheSize, runs, length int, seed uint64) *joinAverager {
	a := &joinAverager{
		w:      w,
		cfg:    join.Config{CacheSize: cacheSize, Warmup: -1, Procs: w.Procs},
		runs:   runs,
		length: length,
		seed:   seed,
	}
	for i := 0; i < runs; i++ {
		r, s := w.Generate(stats.NewRNG(seed+uint64(i)), length)
		a.rs = append(a.rs, r)
		a.ss = append(a.ss, s)
	}
	return a
}

// mean averages post-warm-up joins of the given policy across runs and also
// reports the relative standard deviation.
func (a *joinAverager) mean(mk func() join.Policy) (mean, relSD float64) {
	var sum stats.Summary
	for i := 0; i < a.runs; i++ {
		res := engine.Run(a.rs[i], a.ss[i], mk(), a.cfg, stats.NewRNG(a.seed+1000+uint64(i)))
		sum.Add(float64(res.Joins))
	}
	return sum.Mean(), sum.RelStdDev()
}

// opt averages the offline optimum across the same runs.
func (a *joinAverager) opt() float64 {
	var sum stats.Summary
	warm := a.cfg.EffectiveWarmup()
	for i := 0; i < a.runs; i++ {
		res := core.OptOfflineJoin(a.rs[i], a.ss[i], a.cfg.CacheSize, a.cfg.Window)
		sum.Add(float64(res.CountAfter(warm - 1)))
	}
	return sum.Mean()
}

// Figure8 compares OPT-offline, FlowExpect (optional), RAND, PROB, LIFE and
// HEEB across the four synthetic workloads at a fixed cache size.
func Figure8(o Options) (*Figure, error) {
	configs := []workload.JoinWorkload{
		workload.Tower().Join(),
		workload.Roof().Join(),
		workload.Floor().Join(),
		workload.Walk(),
	}
	fig := &Figure{
		ID:     "fig8",
		Title:  "Average join counts across synthetic data configurations",
		XLabel: "config(1=TOWER 2=ROOF 3=FLOOR 4=WALK)",
		YLabel: "avg result tuples after warm-up",
	}
	for i := range configs {
		fig.X = append(fig.X, float64(i+1))
	}
	names := []string{"OPT-OFFLINE", "RAND", "PROB", "LIFE", "HEEB"}
	vals := map[string][]float64{}
	for _, n := range names {
		vals[n] = make([]float64, len(configs))
	}
	feVals := make([]float64, len(configs))
	for ci, w := range configs {
		a := newJoinAverager(w, o.Cache, o.Runs, o.Length, o.Seed)
		vals["OPT-OFFLINE"][ci] = a.opt()
		m, sd := a.mean(func() join.Policy { return &policy.Rand{Lifetime: w.Lifetime} })
		vals["RAND"][ci] = m
		fig.Note("%s RAND rel. stdev %.3f over %d runs", w.Name, sd, o.Runs)
		vals["PROB"][ci], _ = a.mean(func() join.Policy { return &policy.Prob{Lifetime: w.Lifetime} })
		if w.Lifetime != nil {
			vals["LIFE"][ci], _ = a.mean(func() join.Policy { return &policy.Life{Lifetime: w.Lifetime} })
		}
		vals["HEEB"][ci], _ = a.mean(func() join.Policy { return w.HEEBPolicy() })
		if o.FlowExpect {
			runs, length := o.FlowExpectRuns, o.FlowExpectLength
			if runs == 0 {
				runs = o.Runs
			}
			if length == 0 {
				length = o.Length
			}
			fa := newJoinAverager(w, o.Cache, runs, length, o.Seed)
			m, _ := fa.mean(func() join.Policy { return &policy.FlowExpect{Lookahead: o.Lookahead} })
			// Scale to the full length for comparability of the bar chart.
			feVals[ci] = m * float64(o.Length) / float64(length)
			fig.Note("%s FLOWEXPECT measured over %d runs of %d tuples, linearly scaled to %d",
				w.Name, runs, length, o.Length)
		}
	}
	for _, n := range names {
		if n == "LIFE" {
			fig.AddSeries("LIFE(-=WALK n/a)", vals[n])
			continue
		}
		fig.AddSeries(n, vals[n])
	}
	if o.FlowExpect {
		fig.AddSeries("FLOWEXPECT", feVals)
	}
	return fig, nil
}

// cacheSweep is the shared harness of Figures 9–12.
func cacheSweep(id string, w workload.JoinWorkload, o Options) (*Figure, error) {
	sizes := []int{1, 2, 3, 5, 7, 10, 15, 20, 25, 30, 40, 50}
	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s: join count vs cache size", w.Name),
		XLabel: "memory size",
		YLabel: "avg result tuples after warm-up",
	}
	for _, k := range sizes {
		fig.X = append(fig.X, float64(k))
	}
	labels := []string{"OPT-OFFLINE", "RAND", "PROB"}
	if w.Lifetime != nil {
		labels = append(labels, "LIFE")
	}
	labels = append(labels, "HEEB")
	series := map[string][]float64{}
	for _, l := range labels {
		series[l] = nil
	}
	for _, k := range sizes {
		a := newJoinAverager(w, k, o.Runs, o.Length, o.Seed)
		series["OPT-OFFLINE"] = append(series["OPT-OFFLINE"], a.opt())
		m, _ := a.mean(func() join.Policy { return &policy.Rand{Lifetime: w.Lifetime} })
		series["RAND"] = append(series["RAND"], m)
		m, _ = a.mean(func() join.Policy { return &policy.Prob{Lifetime: w.Lifetime} })
		series["PROB"] = append(series["PROB"], m)
		if w.Lifetime != nil {
			m, _ = a.mean(func() join.Policy { return &policy.Life{Lifetime: w.Lifetime} })
			series["LIFE"] = append(series["LIFE"], m)
		}
		m, _ = a.mean(func() join.Policy { return w.HEEBPolicy() })
		series["HEEB"] = append(series["HEEB"], m)
	}
	for _, l := range labels {
		fig.AddSeries(l, series[l])
	}
	return fig, nil
}

// Figure9 sweeps cache size on TOWER.
func Figure9(o Options) (*Figure, error) { return cacheSweep("fig9", workload.Tower().Join(), o) }

// Figure10 sweeps cache size on ROOF.
func Figure10(o Options) (*Figure, error) { return cacheSweep("fig10", workload.Roof().Join(), o) }

// Figure11 sweeps cache size on FLOOR.
func Figure11(o Options) (*Figure, error) { return cacheSweep("fig11", workload.Floor().Join(), o) }

// Figure12 sweeps cache size on WALK.
func Figure12(o Options) (*Figure, error) { return cacheSweep("fig12", workload.Walk(), o) }

// occupancyStudy runs HEEB with occupancy tracking over variants of TOWER
// and reports the fraction of cache held by R tuples, sampled along the run.
func occupancyStudy(id, title string, variants []occupancyVariant, o Options) (*Figure, error) {
	samplePoints := 25
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "time",
		YLabel: "fraction of cache taken by R tuples",
	}
	step := o.Length / samplePoints
	if step < 1 {
		step = 1
	}
	for t := step - 1; t < o.Length; t += step {
		fig.X = append(fig.X, float64(t))
	}
	for _, v := range variants {
		w := v.spec.Join()
		cfg := join.Config{CacheSize: o.Cache, Warmup: -1, Procs: w.Procs, TrackOccupancy: true}
		acc := make([]float64, len(fig.X))
		for run := 0; run < o.Runs; run++ {
			r, s := w.Generate(stats.NewRNG(o.Seed+uint64(run)), o.Length)
			res := engine.Run(r, s, w.HEEBPolicy(), cfg, stats.NewRNG(o.Seed+500+uint64(run)))
			for i, t := range fig.X {
				acc[i] += res.OccupancyR[int(t)]
			}
		}
		for i := range acc {
			acc[i] /= float64(o.Runs)
		}
		fig.AddSeries(v.label, acc)
	}
	return fig, nil
}

type occupancyVariant struct {
	label string
	spec  workload.TrendSpec
}

// symmetricTower is the Figure 14/17/18 baseline: R and S share identical
// statistical properties and no lag.
func symmetricTower() workload.TrendSpec {
	ts := workload.Tower()
	ts.Lag = 0
	ts.RBound, ts.SBound = 15, 15
	ts.RSigma, ts.SSigma = 1, 1
	return ts
}

// Figure14 reproduces the memory-allocation study: HEEB's division of cache
// between R and S under lags and variance scalings of the TOWER setup.
func Figure14(o Options) (*Figure, error) {
	base := symmetricTower()
	lag2, lag4 := base, base
	lag2.Lag, lag2.Name = 2, "lag2"
	lag4.Lag, lag4.Name = 4, "lag4"
	sx2, sx4 := base, base
	sx2.SSigma, sx2.Name = 2, "Sx2"
	sx4.SSigma, sx4.Name = 4, "Sx4"
	return occupancyStudy("fig14", "Memory allocation between streams under HEEB",
		[]occupancyVariant{
			{"R AND S SAME", base},
			{"R LAGS BY 2", lag2},
			{"R LAGS BY 4", lag4},
			{"S NOISE 2X STDEV", sx2},
			{"S NOISE 4X STDEV", sx4},
		}, o)
}

// Figure17 tracks occupancy over time for stdev ratios 1:1, 1:2, 1:4.
func Figure17(o Options) (*Figure, error) {
	base := symmetricTower()
	r2, r4 := base, base
	r2.SSigma = 2
	r4.SSigma = 4
	return occupancyStudy("fig17", "Cache fraction of stream R over time (variance ratios)",
		[]occupancyVariant{
			{"Std0:Std1=1:1", base},
			{"Std0:Std1=1:2", r2},
			{"Std0:Std1=1:4", r4},
		}, o)
}

// Figure18 tracks occupancy over time for lags 1, 2, 4.
func Figure18(o Options) (*Figure, error) {
	base := symmetricTower()
	l1, l2, l4 := base, base, base
	l1.Lag, l2.Lag, l4.Lag = 1, 2, 4
	return occupancyStudy("fig18", "Cache fraction of stream R over time (lags)",
		[]occupancyVariant{
			{"R 1 BEHIND S", l1},
			{"R 2 BEHIND S", l2},
			{"R 4 BEHIND S", l4},
		}, o)
}

// Figure19 studies FlowExpect's look-ahead distance on a FLOOR-style
// workload with stream length 500 and memory 20, with RAND/PROB/LIFE as
// flat baselines (their performance does not depend on the look-ahead).
func Figure19(o Options) (*Figure, error) {
	w := workload.Floor().Join()
	length := 500
	cache := 20
	lookaheads := []int{1, 2, 3, 5, 7, 10, 15, 20, 25, 30}
	fig := &Figure{
		ID:     "fig19",
		Title:  "Look-ahead effect of FlowExpect (FLOOR-style, len 500, mem 20)",
		XLabel: "look-ahead ΔT",
		YLabel: "avg result tuples after warm-up",
	}
	for _, l := range lookaheads {
		fig.X = append(fig.X, float64(l))
	}
	runs := o.FlowExpectRuns
	if runs == 0 {
		runs = 2
	}
	a := newJoinAverager(w, cache, runs, length, o.Seed)
	fe := make([]float64, len(lookaheads))
	for i, l := range lookaheads {
		fe[i], _ = a.mean(func() join.Policy { return &policy.FlowExpect{Lookahead: l} })
	}
	fig.AddSeries("FLOWEXPECT", fe)
	flat := func(mk func() join.Policy) []float64 {
		m, _ := a.mean(mk)
		out := make([]float64, len(lookaheads))
		for i := range out {
			out[i] = m
		}
		return out
	}
	fig.AddSeries("RAND", flat(func() join.Policy { return &policy.Rand{Lifetime: w.Lifetime} }))
	fig.AddSeries("PROB", flat(func() join.Policy { return &policy.Prob{Lifetime: w.Lifetime} }))
	fig.AddSeries("LIFE", flat(func() join.Policy { return &policy.Life{Lifetime: w.Lifetime} }))
	return fig, nil
}

package stochstream

import (
	"io"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/experiment"
	"stochstream/internal/join"
	"stochstream/internal/modelsel"
	"stochstream/internal/multijoin"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// benchOptions shrinks experiment scale so a full -bench=. pass stays in the
// minutes range; cmd/repro regenerates figures at paper scale.
func benchOptions() experiment.Options {
	o := experiment.Defaults()
	o.Runs = 2
	o.Length = 1000
	o.Cache = 10
	o.Seed = 9
	o.FlowExpectRuns = 1
	o.FlowExpectLength = 200
	return o
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	gen := experiment.Registry()[id]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := gen(o)
		if err != nil {
			b.Fatal(err)
		}
		fig.Render(io.Discard)
	}
}

// One benchmark per evaluation figure of the paper.

func BenchmarkFigure06(b *testing.B) { benchFigure(b, "6") }
func BenchmarkFigure07(b *testing.B) { benchFigure(b, "7") }
func BenchmarkFigure08(b *testing.B) { benchFigure(b, "8") }
func BenchmarkFigure09(b *testing.B) { benchFigure(b, "9") }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "10") }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "11") }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "12") }
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "13") }
func BenchmarkFigure14(b *testing.B) { benchFigure(b, "14") }
func BenchmarkFigure15(b *testing.B) { benchFigure(b, "15") }
func BenchmarkFigure16(b *testing.B) { benchFigure(b, "16") }
func BenchmarkFigure17(b *testing.B) { benchFigure(b, "17") }
func BenchmarkFigure18(b *testing.B) { benchFigure(b, "18") }
func BenchmarkFigure19(b *testing.B) { benchFigure(b, "19") }

// Micro-benchmarks of the paper's building blocks.

func BenchmarkHEEBScoreDirect(b *testing.B) {
	w := workload.Tower().Join()
	h := process.NewHistory(make([]int, 101)...)
	l := core.LExp{Alpha: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.JoinH(w.Procs[1], h, 100+i%20-10, l, 0)
	}
}

func BenchmarkHEEBScorePrecomputedH1(b *testing.B) {
	walk := &process.GaussianWalk{Sigma: 1}
	h1, err := core.PrecomputeH1(walk, core.LExp{Alpha: 10}, -40, 40, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.At(0, i%40-20)
	}
}

func BenchmarkFlowExpectStep(b *testing.B) {
	w := workload.Tower().Join()
	hists := [2]*process.History{
		process.NewHistory(make([]int, 50)...),
		process.NewHistory(make([]int, 50)...),
	}
	cands := make([]core.Candidate, 12)
	for i := range cands {
		cands[i] = core.Candidate{Value: 45 + i, Stream: core.StreamID(i % 2)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FlowExpectStepCached(cands, core.NewForecastCache(w.Procs, hists), 10, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptOfflineJoin(b *testing.B) {
	w := workload.Tower().Join()
	r, s := w.Generate(stats.NewRNG(1), 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OptOfflineJoin(r, s, 10, 0)
	}
}

// Ablation benches for the design decisions called out in DESIGN.md.

// BenchmarkAblationHorizon varies the Lexp truncation threshold: longer
// horizons cost linearly more per score for (here) immeasurable accuracy
// gain beyond the default 1e-9 cutoff.
func BenchmarkAblationHorizon(b *testing.B) {
	w := workload.Roof().Join()
	h := process.NewHistory(make([]int, 101)...)
	for _, alpha := range []float64{3, 10, 50} {
		l := core.LExp{Alpha: alpha}
		b.Run("alpha="+itoa(int(alpha)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.JoinH(w.Procs[1], h, 100, l, 0)
			}
		})
	}
}

// BenchmarkHEEBRun times a full HEEB run per workload shape — trend with
// peaked noise, walk, trend with flat noise — on the window path and on the
// NoMemo reference it is held bit-identical to.
func BenchmarkHEEBRun(b *testing.B) {
	for _, w := range []workload.JoinWorkload{workload.Tower().Join(), workload.Walk(), workload.Floor().Join()} {
		r, s := w.Generate(stats.NewRNG(5), 1000)
		cfg := join.Config{CacheSize: 10, Warmup: -1, Procs: w.Procs}
		for _, noMemo := range []bool{false, true} {
			name := w.Name + "/window"
			if noMemo {
				name = w.Name + "/nomemo"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					engine.Run(r, s, policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: w.LifetimeEstimate, NoMemo: noMemo}), cfg, stats.NewRNG(1))
				}
			})
		}
	}
}

// BenchmarkMultiJoinHEEB measures the multi-way join simulator on a star
// topology.
func BenchmarkMultiJoinHEEB(b *testing.B) {
	mk := func() process.Process {
		return &process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 12)}
	}
	cfg := multijoin.Config{
		Procs:     []process.Process{mk(), mk(), mk()},
		Edges:     []multijoin.Edge{{A: 0, B: 1}, {A: 0, B: 2}},
		CacheSize: 9,
		Warmup:    -1,
	}
	rng := stats.NewRNG(5)
	streams := make([][]int, 3)
	for i := range streams {
		streams[i] = cfg.Procs[i].Generate(rng, 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multijoin.Run(streams, &multijoin.HEEB{}, cfg, stats.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovFirstPassage measures the exact first-passage HEEB scorer.
func BenchmarkMarkovFirstPassage(b *testing.B) {
	n := 20
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for j := range p[i] {
			p[i][j] = 1 / float64(n)
		}
	}
	m, err := process.NewMarkovChain(0, p, 0)
	if err != nil {
		b.Fatal(err)
	}
	l := core.LExp{Alpha: 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MarkovFirstPassageH(m, 0, i%n, l, 0)
	}
}

// BenchmarkModelDetection measures the full model-selection decision tree.
func BenchmarkModelDetection(b *testing.B) {
	series := (&process.AR1{Phi0: 5, Phi1: 0.7, Sigma: 3, Init: 17}).Generate(stats.NewRNG(2), 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modelsel.Detect(series); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationControlPoints varies the h2 control grid density
// (Figure 16's accuracy/space trade-off, timed).
func BenchmarkAblationControlPoints(b *testing.B) {
	ar := &process.AR1{Phi0: 55.9, Phi1: 0.72, Sigma: 42.2, Init: 200}
	l := core.LExp{Alpha: 100}
	for _, n := range []int{3, 5, 9} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.PrecomputeH2(ar, l, 50, 350, 50, 350, n, n, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchmarkStepHot measures one operator Step at steady state (cache full,
// every step probes, scores all candidates and evicts) — the hot path the
// ledger's trend workload serves end to end. LifetimeEstimate is pinned so α
// (and with it the HEEB summation horizon) does not scale with the cache size
// and the cache-size axis isolates candidate-count effects.
func benchmarkStepHot(b *testing.B, cacheSize, band int, opts policy.HEEBOptions) {
	b.Helper()
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(2, 12)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(3, 15)},
	}
	warm := cacheSize/2 + 4 // steps until the cache is full and evicting
	n := warm + b.N
	rng := stats.NewRNG(21)
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	j, err := engine.NewJoin(engine.Config{
		CacheSize: cacheSize,
		Band:      band,
		Procs:     procs,
		Policy:    policy.NewHEEB(opts),
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < warm; t++ {
		j.Step(engine.Tuple{Key: r[t]}, engine.Tuple{Key: s[t]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for t := warm; t < n; t++ {
		j.Step(engine.Tuple{Key: r[t]}, engine.Tuple{Key: s[t]})
	}
}

// hotOpts is the HEEB configuration the hot-path benchmarks run under: a
// pinned lifetime estimate.
func hotOpts() policy.HEEBOptions {
	return policy.HEEBOptions{LifetimeEstimate: 32}
}

func BenchmarkStepHotEquiCache64(b *testing.B)   { benchmarkStepHot(b, 64, 0, hotOpts()) }
func BenchmarkStepHotEquiCache256(b *testing.B)  { benchmarkStepHot(b, 256, 0, hotOpts()) }
func BenchmarkStepHotEquiCache1024(b *testing.B) { benchmarkStepHot(b, 1024, 0, hotOpts()) }
func BenchmarkStepHotBandCache256(b *testing.B)  { benchmarkStepHot(b, 256, 4, hotOpts()) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

package stochstream

import (
	"bytes"
	"strings"
	"testing"
)

// The facade tests exercise the public API end-to-end, the way a downstream
// user would.

func TestPublicJoinPipeline(t *testing.T) {
	r := &LinearTrend{Slope: 1, Intercept: -1, Noise: BoundedNormal(1, 10)}
	s := &LinearTrend{Slope: 1, Intercept: 0, Noise: BoundedNormal(2, 15)}
	rng := NewRNG(1)
	rv := r.Generate(rng, 1500)
	sv := s.Generate(rng, 1500)
	cfg := JoinConfig{CacheSize: 10, Warmup: -1, Procs: [2]Process{r, s}}

	heeb := RunJoin(rv, sv, NewHEEB(HEEBOptions{LifetimeEstimate: 3}), cfg, 2)
	rnd := RunJoin(rv, sv, &RandPolicy{}, cfg, 2)
	opt := OptOfflineJoin(rv, sv, cfg.CacheSize, 0)
	optJoins := opt.CountAfter(cfg.EffectiveWarmup() - 1)

	if !(heeb.Joins > rnd.Joins) {
		t.Fatalf("HEEB %d <= RAND %d", heeb.Joins, rnd.Joins)
	}
	if heeb.Joins > optJoins {
		t.Fatalf("HEEB %d above OPT %d", heeb.Joins, optJoins)
	}
}

func TestPublicCachePipeline(t *testing.T) {
	rw, err := Real().Build(NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := CacheConfig{Capacity: 80}
	lfd := RunCache(rw.Refs, &LFD{}, cfg, 1)
	heeb := RunCache(rw.Refs, &CacheHEEB{Model: rw.Model}, cfg, 1)
	lru := RunCache(rw.Refs, &LRU{}, cfg, 1)
	if lfd.Misses > heeb.Misses || lfd.Misses > lru.Misses {
		t.Fatalf("LFD not optimal: %d vs %d/%d", lfd.Misses, heeb.Misses, lru.Misses)
	}
	if heeb.Misses >= lru.Misses {
		t.Fatalf("HEEB misses %d >= LRU %d on AR(1) stream", heeb.Misses, lru.Misses)
	}
}

func TestPublicECBAndDominance(t *testing.T) {
	partner := &Stationary{P: NewTable(0, []float64{1, 3})}
	h := NewHistory(0)
	hot := JoinECB(partner, h, 1, 10)
	cold := JoinECB(partner, h, 0, 10)
	if !Dominates(hot, cold) || !StronglyDominates(hot, cold) {
		t.Fatal("dominance broken through the facade")
	}
	if got := DominatedSubset([]ECB{hot, cold}, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DominatedSubset = %v", got)
	}
}

func TestPublicHEEBScores(t *testing.T) {
	partner := &Stationary{P: NewUniform(0, 9)}
	h := NewHistory(0)
	in := JoinH(partner, h, 5, LExp{Alpha: 5}, 0)
	out := JoinH(partner, h, 42, LExp{Alpha: 5}, 0)
	if !(in > 0 && out == 0) {
		t.Fatalf("JoinH = %v / %v", in, out)
	}
	ref := &Stationary{P: NewUniform(0, 1)}
	if got := CacheH(ref, h, 0, LInf{}, 5000); got < 0.999 {
		t.Fatalf("CacheH = %v, want ~1", got)
	}
	walk := &GaussianWalk{Sigma: 1}
	if got := MarginalH(walk, 0, 0, LExp{Alpha: 10}, 0); got <= 0 {
		t.Fatalf("MarginalH = %v", got)
	}
}

func TestPublicPrecompute(t *testing.T) {
	walk := &GaussianWalk{Sigma: 1}
	h1, err := PrecomputeH1(walk, LExp{Alpha: 10}, -20, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1.At(0, 0) <= h1.At(0, 15) {
		t.Fatal("h1 shape wrong")
	}
	ar := &AR1{Phi0: 5, Phi1: 0.6, Sigma: 3, Init: 12}
	h2, err := PrecomputeH2(ar, LExp{Alpha: 20}, 0, 30, 0, 30, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.At(12, 12) <= h2.At(12, 30) {
		t.Fatal("h2 shape wrong")
	}
}

func TestPublicReduction(t *testing.T) {
	refs := []int{1, 2, 1, 3, 1}
	r, s := ReduceCachingToJoining(refs)
	if len(r) != 5 || len(s) != 5 {
		t.Fatal("reduction length")
	}
	if s[0] != r[2] {
		t.Fatal("supply tuple must match next occurrence")
	}
}

func TestPublicFitAR1(t *testing.T) {
	g := NewRNG(4)
	series := make([]float64, 5000)
	x := 0.0
	for i := range series {
		x = 1 + 0.5*x + g.NormFloat64()
		series[i] = x
	}
	fit, err := FitAR1(series)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Phi1 < 0.4 || fit.Phi1 > 0.6 {
		t.Fatalf("Phi1 = %v", fit.Phi1)
	}
	if a := AlphaForLifetime(10); a <= 0 {
		t.Fatalf("alpha = %v", a)
	}
}

func TestPublicFigureRegistry(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 16 {
		t.Fatalf("FigureIDs = %v", ids)
	}
	var buf bytes.Buffer
	o := DefaultExperimentOptions()
	fig, err := GenerateFigure("7", o)
	if err != nil {
		t.Fatal(err)
	}
	fig.Render(&buf)
	if !strings.Contains(buf.String(), "TOWER") {
		t.Fatalf("figure 7 output missing TOWER:\n%s", buf.String())
	}
	_, err = GenerateFigure("99", o)
	if err == nil {
		t.Fatal("unknown figure should error")
	}
	if _, ok := err.(*UnknownFigureError); !ok {
		t.Fatalf("error type = %T", err)
	}
	if !strings.Contains(err.Error(), "99") {
		t.Fatalf("error message = %q", err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	for _, w := range []JoinWorkload{Tower().Join(), Roof().Join(), Floor().Join(), Walk()} {
		r, s := w.Generate(NewRNG(1), 100)
		if len(r) != 100 || len(s) != 100 {
			t.Fatalf("%s generation broken", w.Name)
		}
	}
}

func TestPublicFlowGraph(t *testing.T) {
	g := NewFlowGraph(3)
	g.AddArc(0, 1, 1, 2)
	g.AddArc(1, 2, 1, 3)
	res, err := g.MinCostFlow(0, 2, 1)
	if err != nil || res.Flow != 1 || res.Cost != 5 {
		t.Fatalf("res = %+v err = %v", res, err)
	}
}

func TestPublicSpline(t *testing.T) {
	sp, err := NewSpline([]float64{0, 1, 2}, []float64{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.At(1); got != 1 {
		t.Fatalf("spline At(1) = %v", got)
	}
}

func TestPublicWindowedJoin(t *testing.T) {
	p := NewUniform(0, 4)
	r := &Stationary{P: p}
	s := &Stationary{P: p}
	rng := NewRNG(6)
	rv := r.Generate(rng, 1000)
	sv := s.Generate(rng, 1000)
	base := JoinConfig{CacheSize: 3, Warmup: 0, Procs: [2]Process{r, s}}
	win := base
	win.Window = 5
	full := RunJoin(rv, sv, NewHEEB(HEEBOptions{}), base, 1)
	clipped := RunJoin(rv, sv, NewHEEB(HEEBOptions{}), win, 1)
	if clipped.Joins > full.Joins {
		t.Fatalf("window increased joins: %d > %d", clipped.Joins, full.Joins)
	}
}

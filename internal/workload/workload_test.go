package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"stochstream/internal/cachepolicy"
	"stochstream/internal/cachesim"
	"stochstream/internal/engine"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func TestTrendSpecsMatchPaperParameters(t *testing.T) {
	tw, rf, fl := Tower(), Roof(), Floor()
	for _, ts := range []TrendSpec{tw, rf, fl} {
		if ts.Lag != 1 || ts.RBound != 10 || ts.SBound != 15 {
			t.Fatalf("%s: lag/bounds = %d/%d/%d", ts.Name, ts.Lag, ts.RBound, ts.SBound)
		}
	}
	if tw.RSigma != 1 || tw.SSigma != 2 {
		t.Fatalf("TOWER sigmas = %v/%v", tw.RSigma, tw.SSigma)
	}
	if rf.RSigma != 3.3 || rf.SSigma != 5 {
		t.Fatalf("ROOF sigmas = %v/%v", rf.RSigma, rf.SSigma)
	}
	if fl.RSigma != 0 || fl.SSigma != 0 {
		t.Fatalf("FLOOR should be uniform")
	}
}

func TestJoinWorkloadStreamsStayInBands(t *testing.T) {
	w := Tower().Join()
	rng := stats.NewRNG(1)
	r, s := w.Generate(rng, 500)
	for tm := range r {
		if d := r[tm] - (tm - 1); d < -10 || d > 10 {
			t.Fatalf("R strays outside band at %d: %d", tm, r[tm])
		}
		if d := s[tm] - tm; d < -15 || d > 15 {
			t.Fatalf("S strays outside band at %d: %d", tm, s[tm])
		}
	}
}

func TestLifetimeMatchesWindowGeometry(t *testing.T) {
	w := Floor().Join()
	now := 100
	// R tuple at the right edge of S's future window: lifetime ~ full width.
	rt := join.Tuple{Value: now + 15, Stream: core.StreamR}
	if got := w.Lifetime(now, rt); got != 30 {
		t.Fatalf("R edge lifetime = %d, want 30", got)
	}
	// R tuple just behind the S window: expired.
	rt2 := join.Tuple{Value: now - 16, Stream: core.StreamR}
	if got := w.Lifetime(now, rt2); got > 0 {
		t.Fatalf("expired R tuple has lifetime %d", got)
	}
	// S tuple measured against R's (lagged) window.
	stp := join.Tuple{Value: now, Stream: core.StreamS}
	if got := w.Lifetime(now, stp); got != 11 {
		t.Fatalf("S lifetime = %d, want 11 (bound 10 + lag 1)", got)
	}
}

func TestLifetimeEstimates(t *testing.T) {
	if got := Floor().Join().LifetimeEstimate; got != 12.5 {
		t.Fatalf("FLOOR estimate = %v, want (10+15)/2", got)
	}
	if got := Tower().Join().LifetimeEstimate; got != 3 {
		t.Fatalf("TOWER estimate = %v, want 1+2", got)
	}
	if got := Roof().Join().LifetimeEstimate; math.Abs(got-8.3) > 1e-12 {
		t.Fatalf("ROOF estimate = %v, want 8.3", got)
	}
}

func TestWalkWorkload(t *testing.T) {
	w := Walk()
	if w.Lifetime != nil {
		t.Fatal("WALK must not define a pseudo-window (no LIFE)")
	}
	// One model for both streams, so its increment tables are held once.
	if w.Procs[0] != w.Procs[1] {
		t.Fatal("WALK's two streams must share one model value")
	}
	r, s := w.Generate(stats.NewRNG(2), 1000)
	// Independent walks: they should drift apart in mean square.
	var last float64
	for i := range r {
		last = float64(r[i] - s[i])
	}
	if last == 0 {
		t.Log("walks ended at the same point (possible but unlikely); not failing")
	}
	if len(r) != 1000 || len(s) != 1000 {
		t.Fatal("length mismatch")
	}
}

func TestHEEBPolicyConstruction(t *testing.T) {
	p := Tower().Join().HEEBPolicy()
	if p.Opts.LifetimeEstimate != 3 {
		t.Fatalf("estimate = %v", p.Opts.LifetimeEstimate)
	}
}

func TestRealBuildFitsCloseToGeneratingModel(t *testing.T) {
	rw, err := Real().Build(stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Refs) != 3650 {
		t.Fatalf("len(Refs) = %d", len(rw.Refs))
	}
	if math.Abs(rw.Fit.Phi1-0.72) > 0.05 {
		t.Fatalf("fitted Phi1 = %v, want ~0.72", rw.Fit.Phi1)
	}
	if math.Abs(rw.Fit.Phi0-55.9) > 6 {
		t.Fatalf("fitted Phi0 = %v, want ~55.9 (scaled)", rw.Fit.Phi0)
	}
	if math.Abs(rw.Fit.Sigma-42.2) > 3 {
		t.Fatalf("fitted Sigma = %v, want ~42.2 (scaled)", rw.Fit.Sigma)
	}
	if rw.Model == nil || rw.Model.Phi1 != rw.Fit.Phi1 {
		t.Fatal("model not built from fit")
	}
	// Temperatures should look Melbourne-ish: mean ~20 °C (200 buckets).
	var sum float64
	for _, v := range rw.Refs {
		sum += float64(v)
	}
	mean := sum / float64(len(rw.Refs))
	if mean < 150 || mean > 250 {
		t.Fatalf("mean bucket = %v, want ~200", mean)
	}
}

func TestRealBuildRejectsTinySeries(t *testing.T) {
	spec := Real()
	spec.Days = 3
	if _, err := spec.Build(stats.NewRNG(1)); err == nil {
		t.Fatal("tiny series should fail")
	}
}

func TestRealDeterministicPerSeed(t *testing.T) {
	a, _ := Real().Build(stats.NewRNG(9))
	b, _ := Real().Build(stats.NewRNG(9))
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			t.Fatal("same seed produced different REAL series")
		}
	}
}

// End-to-end sanity: on TOWER, HEEB beats PROB and LIFE (the paper's
// headline qualitative result), and OPT-offline bounds everyone.
func TestTowerPolicyOrdering(t *testing.T) {
	w := Tower().Join()
	cfg := join.Config{CacheSize: 10, Warmup: -1, Procs: w.Procs}
	runs := 3
	var heebSum, probSum, lifeSum, randSum, optSum int
	for i := 0; i < runs; i++ {
		rng := stats.NewRNG(100 + uint64(i))
		r, s := w.Generate(rng, 2000)
		heebSum += engine.Run(r, s, w.HEEBPolicy(), cfg, stats.NewRNG(1)).Joins
		probSum += engine.Run(r, s, &policy.Prob{Lifetime: w.Lifetime}, cfg, stats.NewRNG(1)).Joins
		lifeSum += engine.Run(r, s, &policy.Life{Lifetime: w.Lifetime}, cfg, stats.NewRNG(1)).Joins
		randSum += engine.Run(r, s, &policy.Rand{Lifetime: w.Lifetime}, cfg, stats.NewRNG(1)).Joins
		opt := core.OptOfflineJoin(r, s, cfg.CacheSize, 0)
		optSum += opt.CountAfter(cfg.EffectiveWarmup() - 1)
	}
	if !(heebSum > probSum && heebSum > lifeSum && heebSum > randSum) {
		t.Fatalf("HEEB=%d PROB=%d LIFE=%d RAND=%d: HEEB should lead", heebSum, probSum, lifeSum, randSum)
	}
	if optSum < heebSum {
		t.Fatalf("OPT=%d below HEEB=%d: accounting bug", optSum, heebSum)
	}
}

// realSeasonal builds REAL with a ±4 °C annual cycle on top of its AR(1)
// series. The fit is still a plain AR(1) — exactly what the paper's offline
// MLE would produce on such data — so the variant stresses HEEB's
// robustness to model misspecification.
func realSeasonal(rng *stats.RNG) (RealWorkload, error) {
	rw, err := Real().Build(rng)
	if err != nil {
		return RealWorkload{}, err
	}
	amp := 4 * float64(Real().Scale)
	for t := range rw.Refs {
		rw.Refs[t] += int(math.Round(amp * math.Sin(2*math.Pi*float64(t)/365)))
	}
	fit, err := stats.FitAR1Int(rw.Refs)
	if err != nil {
		return RealWorkload{}, err
	}
	return RealWorkload{Name: "REAL", Refs: rw.Refs, Model: process.FromFit(fit), Fit: fit}, nil
}

func TestRealSeasonalVariant(t *testing.T) {
	rw, err := realSeasonal(stats.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	// The seasonal cycle widens the value range relative to the plain AR(1).
	plain, _ := Real().Build(stats.NewRNG(15))
	rangeOf := func(xs []int) int {
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo, hi = min(lo, v), max(hi, v)
		}
		return hi - lo
	}
	if rangeOf(rw.Refs) <= rangeOf(plain.Refs) {
		t.Fatalf("seasonal range %d not wider than plain %d", rangeOf(rw.Refs), rangeOf(plain.Refs))
	}
	// The (misspecified) AR(1) fit still produces a usable model: HEEB must
	// beat RAND on the seasonal series.
	heeb := cachesim.Run(rw.Refs, &cachepolicy.HEEB{Model: rw.Model}, cachesim.Config{Capacity: 100}, stats.NewRNG(1))
	rnd := cachesim.Run(rw.Refs, &cachepolicy.Rand{}, cachesim.Config{Capacity: 100}, stats.NewRNG(1))
	if heeb.Misses >= rnd.Misses {
		t.Fatalf("seasonal HEEB misses %d >= RAND %d", heeb.Misses, rnd.Misses)
	}
	// Seasonality raises the fitted phi1 (slowly varying mean): still < 1.
	if rw.Fit.Phi1 <= plain.Fit.Phi1 || rw.Fit.Phi1 >= 1 {
		t.Fatalf("seasonal phi1 = %v vs plain %v", rw.Fit.Phi1, plain.Fit.Phi1)
	}
}

func TestLoadRealTrace(t *testing.T) {
	// Generate a synthetic "file" in date,value CSV form with comments.
	var sb strings.Builder
	sb.WriteString("# Melbourne-like daily temperatures\n\n")
	series := (&process.AR1{Phi0: 5.59, Phi1: 0.72, Sigma: 4.22, Init: 20}).Generate(stats.NewRNG(31), 800)
	for i, v := range series {
		fmt.Fprintf(&sb, "1981-%03d,%.1f\n", i, float64(v))
	}
	rw, err := LoadRealTrace(strings.NewReader(sb.String()), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Refs) != 800 {
		t.Fatalf("len = %d", len(rw.Refs))
	}
	if rw.Refs[0] != series[0]*10 {
		t.Fatalf("scaling wrong: %d vs %d", rw.Refs[0], series[0]*10)
	}
	if math.Abs(rw.Fit.Phi1-0.72) > 0.1 {
		t.Fatalf("fitted Phi1 = %v", rw.Fit.Phi1)
	}
	// HEEB runs on the loaded workload.
	res := cachesim.Run(rw.Refs, &cachepolicy.HEEB{Model: rw.Model}, cachesim.Config{Capacity: 40}, stats.NewRNG(1))
	if res.Hits == 0 {
		t.Fatal("no hits on loaded trace")
	}
}

func TestLoadRealTraceErrors(t *testing.T) {
	if _, err := LoadRealTrace(strings.NewReader("1\n2\nbroken\n"), 1); err == nil {
		t.Fatal("malformed line should fail")
	}
	if _, err := LoadRealTrace(strings.NewReader("1\n2\n3\n"), 1); err == nil {
		t.Fatal("short trace should fail")
	}
	if _, err := LoadRealTrace(strings.NewReader(strings.Repeat("5\n", 50)), 1); err == nil {
		t.Fatal("constant trace should fail the AR fit")
	}
}

func TestLoadRealTracePlainNumbers(t *testing.T) {
	var sb strings.Builder
	series := (&process.GaussianWalk{Sigma: 2, Init: 100}).Generate(stats.NewRNG(5), 60)
	for _, v := range series {
		fmt.Fprintf(&sb, "%d\n", v)
	}
	rw, err := LoadRealTrace(strings.NewReader(sb.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Refs[10] != series[10] {
		t.Fatal("plain-number parsing broken")
	}
}

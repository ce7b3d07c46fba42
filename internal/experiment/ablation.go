package experiment

import (
	"stochstream/internal/cachepolicy"
	"stochstream/internal/cachesim"
	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// The ablation experiments quantify the design choices DESIGN.md calls out.
// They are registered beside the paper figures as ids "a1" and "a2".

// AblationControlPoints (a1) sweeps the h2 control-grid density for the REAL
// model and reports both approximation error and the end effect on cache
// misses — the investigation the paper defers ("we plan to investigate the
// effect of approximation on the performance of HEEB as future work").
func AblationControlPoints(o Options) (*Figure, error) {
	rw, err := realWorkload(o)
	if err != nil {
		return nil, err
	}
	capacity := 100
	l := core.LExp{Alpha: float64(capacity)}
	grid := []int{2, 3, 5, 9, 17}
	fig := &Figure{
		ID:     "a1",
		Title:  "Ablation: h2 control-point density (REAL, capacity 100)",
		XLabel: "control points per axis",
		YLabel: "errors scaled by 1e6; misses absolute",
	}
	mean := rw.Model.Phi0 / (1 - rw.Model.Phi1)
	sd := rw.Model.Sigma / 0.7 // crude stationary-sd proxy for the domain
	lo, hi := int(mean-3*sd), int(mean+3*sd)
	var maxErrs, meanErrs, misses []float64
	for _, n := range grid {
		h2, err := core.PrecomputeH2(rw.Model, l, lo, hi, lo, hi, n, n, 0)
		if err != nil {
			return nil, err
		}
		maxErr, meanErr := h2.Accuracy(rw.Model, l, 0, 25, 25)
		maxErrs = append(maxErrs, maxErr*1e6)
		meanErrs = append(meanErrs, meanErr*1e6)
		res := cachesim.Run(rw.Refs, &cachepolicy.HEEB{Model: rw.Model, ControlPoints: n},
			cachesim.Config{Capacity: capacity}, stats.NewRNG(o.Seed+3))
		misses = append(misses, float64(res.Misses))
		fig.X = append(fig.X, float64(n))
	}
	fig.AddSeries("max abs err (1e-6)", maxErrs)
	fig.AddSeries("mean abs err (1e-6)", meanErrs)
	fig.AddSeries("REAL misses", misses)
	// Exact-H reference: direct marginal scoring with no approximation.
	exact := cachesim.Run(rw.Refs, &exactMarginalHEEB{model: rw.Model, alpha: float64(capacity)},
		cachesim.Config{Capacity: capacity}, stats.NewRNG(o.Seed+3))
	fig.Note("exact (unapproximated) HEEB misses: %d", exact.Misses)
	return fig, nil
}

// exactMarginalHEEB scores with MarginalH directly, bypassing h2.
type exactMarginalHEEB struct {
	model interface {
		ForecastNormal(last, delta int) (float64, float64)
	}
	alpha float64
	hist  []int
}

func (p *exactMarginalHEEB) Name() string { return "HEEB-exact" }
func (p *exactMarginalHEEB) Reset(int, []int, *stats.RNG) {
	p.hist = p.hist[:0]
}
func (p *exactMarginalHEEB) Touch(_, v int, _ bool) { p.hist = append(p.hist, v) }
func (p *exactMarginalHEEB) Victim(_ int, v int, cached []int) (int, bool) {
	last := p.hist[len(p.hist)-1]
	l := core.LExp{Alpha: p.alpha}
	score := func(u int) float64 { return core.MarginalH(p.model, last, u, l, 0) }
	bestIdx, bestH := -1, score(v)
	for i, cv := range cached {
		if h := score(cv); h < bestH {
			bestIdx, bestH = i, h
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx, true
}

// AblationAlpha (a2) sweeps HEEB's α around the heuristic lifetime estimate
// on TOWER, validating the paper's α-selection rule (Section 4.3's matching
// of predicted and estimated lifetimes).
func AblationAlpha(o Options) (*Figure, error) {
	w := workload.Tower().Join()
	fig := &Figure{
		ID:     "a2",
		Title:  "Ablation: HEEB α sensitivity (TOWER)",
		XLabel: "lifetime-estimate multiplier",
		YLabel: "avg result tuples after warm-up",
	}
	mults := []float64{0.25, 0.5, 1, 2, 4, 8}
	a := newJoinAverager(w, o.Cache, o.Runs, o.Length, o.Seed)
	var ys []float64
	for _, m := range mults {
		est := w.LifetimeEstimate * m
		mean, _ := a.mean(func() join.Policy {
			return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: est})
		})
		ys = append(ys, mean)
		fig.X = append(fig.X, m)
	}
	fig.AddSeries("HEEB", ys)
	adaptive, _ := a.mean(func() join.Policy {
		return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: w.LifetimeEstimate, Adaptive: true})
	})
	fig.Note("adaptive-α HEEB (future-work feature): %.1f", adaptive)
	return fig, nil
}

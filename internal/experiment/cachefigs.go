package experiment

import (
	"os"

	"stochstream/internal/cachepolicy"
	"stochstream/internal/cachesim"
	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// Figure6 regenerates the precomputed h_R curves for a random walk with
// N(0,1) steps and drifts 0, 2, 4, over v_x − x_{t0} ∈ [−20, 20] with
// Lexp(α = cache size).
func Figure6(o Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig6",
		Title:  "Precomputed h_R for random walk with drift",
		XLabel: "vx - x_t0",
		YLabel: "H (Lexp, alpha = cache size)",
	}
	alpha := float64(o.Cache)
	l := core.TabulateL(core.LExp{Alpha: alpha}, 0)
	for d := -20; d <= 20; d++ {
		fig.X = append(fig.X, float64(d))
	}
	for _, drift := range []float64{0, 2, 4} {
		w := &process.GaussianWalk{Drift: drift, Sigma: 1}
		h1, err := core.PrecomputeH1(w, l, -20, 20, 1, 0)
		if err != nil {
			return nil, err
		}
		y := make([]float64, 0, len(fig.X))
		for d := -20; d <= 20; d++ {
			y = append(y, h1.At(0, d))
		}
		fig.AddSeries(labelDrift(drift), y)
	}
	return fig, nil
}

func labelDrift(d float64) string {
	switch d {
	case 0:
		return "drift=0"
	case 2:
		return "drift=2"
	default:
		return "drift=4"
	}
}

// Figure7 regenerates the TOWER/ROOF/FLOOR noise pdfs for stream S (bounded
// normal σ=2, bounded normal σ=5, bounded uniform, all on [−15, 15]).
func Figure7(Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig7",
		Title:  "TOWER/ROOF/FLOOR noise distributions (stream S)",
		XLabel: "value",
		YLabel: "probability",
	}
	for v := -15; v <= 15; v++ {
		fig.X = append(fig.X, float64(v))
	}
	pdfs := []struct {
		label string
		p     dist.PMF
	}{
		{"TOWER", dist.BoundedNormal(2, 15)},
		{"ROOF", dist.BoundedNormal(5, 15)},
		{"FLOOR", dist.NewUniform(-15, 15)},
	}
	for _, e := range pdfs {
		y := make([]float64, 0, len(fig.X))
		for v := -15; v <= 15; v++ {
			y = append(y, e.p.Prob(v))
		}
		fig.AddSeries(e.label, y)
	}
	return fig, nil
}

// realWorkload builds the REAL experiment once per figure: the synthetic
// Melbourne-like series by default, or a user-supplied trace file.
func realWorkload(o Options) (workload.RealWorkload, error) {
	if o.RealTracePath != "" {
		f, err := os.Open(o.RealTracePath)
		if err != nil {
			return workload.RealWorkload{}, err
		}
		defer f.Close()
		return workload.LoadRealTrace(f, 10)
	}
	return workload.Real().Build(stats.NewRNG(o.Seed))
}

// Figure13 compares LFD, RAND, LRU, PROB(LFU) and HEEB on the REAL caching
// workload across memory sizes, reporting total misses of a single run (the
// paper uses one run because the data set is fixed).
func Figure13(o Options) (*Figure, error) {
	rw, err := realWorkload(o)
	if err != nil {
		return nil, err
	}
	title := "REAL (synthetic Melbourne temperatures): misses vs memory size"
	if o.RealTracePath != "" {
		title = "REAL (user trace " + o.RealTracePath + "): misses vs memory size"
	}
	fig := &Figure{
		ID:     "fig13",
		Title:  title,
		XLabel: "memory size",
		YLabel: "number of misses",
	}
	fig.Note("fitted AR(1): X_t = %.3f + %.3f X_{t-1} + N(0, %.2f^2) over %d transitions (values are 0.1 °C buckets)",
		rw.Fit.Phi0, rw.Fit.Phi1, rw.Fit.Sigma, rw.Fit.N)
	sizes := []int{10, 25, 50, 75, 100, 150, 200, 250, 300}
	for _, m := range sizes {
		fig.X = append(fig.X, float64(m))
	}
	policies := []struct {
		label string
		mk    func() cachesim.Policy
	}{
		{"LFD", func() cachesim.Policy { return &cachepolicy.LFD{} }},
		{"RAND", func() cachesim.Policy { return &cachepolicy.Rand{} }},
		{"LRU", func() cachesim.Policy { return &cachepolicy.LRU{} }},
		{"PROB(LFU)", func() cachesim.Policy { return &cachepolicy.LFU{} }},
		{"HEEB", func() cachesim.Policy { return &cachepolicy.HEEB{Model: rw.Model} }},
	}
	for _, pe := range policies {
		y := make([]float64, 0, len(sizes))
		for _, m := range sizes {
			res := cachesim.Run(rw.Refs, pe.mk(), cachesim.Config{Capacity: m}, stats.NewRNG(o.Seed+7))
			y = append(y, float64(res.Misses))
		}
		fig.AddSeries(pe.label, y)
	}
	return fig, nil
}

// h2FigureGrid evaluates the REAL h2 surface (exact or approximated) on a
// coarse display grid: one series per observation value x, sampled over
// candidate values v.
func h2FigureGrid(id, title string, o Options, approx bool) (*Figure, error) {
	rw, err := realWorkload(o)
	if err != nil {
		return nil, err
	}
	model := rw.Model
	alpha := 100.0 // representative cache size for the surface plots
	l := core.TabulateL(core.LExp{Alpha: alpha}, 0)
	vLo, vHi := 50, 400
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "tuple value vx (0.1 °C buckets)",
		YLabel: "H",
	}
	for v := vLo; v <= vHi; v += 25 {
		fig.X = append(fig.X, float64(v))
	}
	var h2 *core.H2
	if approx {
		h2, err = core.PrecomputeH2(model, l, vLo, vHi, vLo, vHi, 5, 5, 0)
		if err != nil {
			return nil, err
		}
		maxErr, meanErr := h2.Accuracy(model, l, 0, 29, 29)
		fig.Note("bicubic approximation from 25 control points: max abs err %.3g, mean abs err %.3g", maxErr, meanErr)
	}
	for _, x := range []int{100, 200, 300} {
		y := make([]float64, 0, len(fig.X))
		for v := vLo; v <= vHi; v += 25 {
			if approx {
				y = append(y, h2.At(x, v))
			} else {
				y = append(y, core.MarginalH(model, x, v, l, 0))
			}
		}
		fig.AddSeries(labelX(x), y)
	}
	return fig, nil
}

func labelX(x int) string {
	switch x {
	case 100:
		return "x_t0=100"
	case 200:
		return "x_t0=200"
	default:
		return "x_t0=300"
	}
}

// Figure15 reports the exact h2 surface for the REAL AR(1) model.
func Figure15(o Options) (*Figure, error) {
	return h2FigureGrid("fig15", "HEEB surface for REAL (actual)", o, false)
}

// Figure16 reports the bicubic approximation of the h2 surface from the
// paper's 25 control points, with its accuracy recorded as a note.
func Figure16(o Options) (*Figure, error) {
	return h2FigureGrid("fig16", "HEEB surface for REAL (bicubic, 25 control points)", o, true)
}

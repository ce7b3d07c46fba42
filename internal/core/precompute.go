package core

import (
	"fmt"
	"math"

	"stochstream/internal/interp"
	"stochstream/internal/process"
)

// H1 is the precomputed function h1 of Theorem 5(2) for a random walk with
// drift (φ1 = 1): HEEB's score depends on the candidate's value only through
// d = v_x − x_{t0}, so one curve over d serves every tuple at every time.
// The curve is stored as a cubic-spline approximation of exact values
// sampled on an integer lattice.
type H1 struct {
	lo, hi int
	sp     *interp.Spline
}

// PrecomputeH1 tabulates h1(d) for d ∈ [lo, hi] at every step integers and
// fits the interpolating spline. nf must be a φ1 = 1 model (GaussianWalk, or
// AR1 with Phi1 == 1); l is the survival estimate; fallbackHorizon bounds
// the HEEB sum for non-decaying L.
func PrecomputeH1(nf process.NormalForecaster, l LFunc, lo, hi, step int, fallbackHorizon int) (*H1, error) {
	if lo >= hi {
		return nil, fmt.Errorf("core: PrecomputeH1 needs lo < hi, got [%d, %d]", lo, hi)
	}
	if step < 1 {
		step = 1
	}
	var xs, ys []float64
	for d := lo; d <= hi; d += step {
		xs = append(xs, float64(d))
		// By Theorem 5(2) the score is translation invariant, so evaluate
		// at last = 0, v = d.
		ys = append(ys, MarginalH(nf, 0, d, l, fallbackHorizon))
	}
	// Exact float comparison: both sides are exact integer-valued conversions, so equality dedupes the endpoint knot
	if xs[len(xs)-1] != float64(hi) {
		xs = append(xs, float64(hi))
		ys = append(ys, MarginalH(nf, 0, hi, l, fallbackHorizon))
	}
	sp, err := interp.NewSpline(xs, ys)
	if err != nil {
		return nil, err
	}
	return &H1{lo: lo, hi: hi, sp: sp}, nil
}

// At returns the approximate HEEB score for a tuple with value v when the
// most recent observation is last. Differences outside the tabulated range
// clamp to its ends (the curve is flat ≈ 0 there by construction).
func (h *H1) At(last, v int) float64 {
	d := v - last
	if d < h.lo {
		d = h.lo
	}
	if d > h.hi {
		d = h.hi
	}
	return h.sp.At(float64(d))
}

// H2 is the precomputed surface h2 of Theorem 5(1) for an AR(1) stream:
// HEEB's score is a time-independent function of (v_x, x_{t0}), stored as a
// bicubic interpolation over a control-point grid — the paper uses 25
// control points (5×5) for the REAL experiment.
type H2 struct {
	vLo, vHi int
	xLo, xHi int
	grid     *interp.Grid
}

// PrecomputeH2 evaluates the exact score at an nv×nx control grid spanning
// v ∈ [vLo, vHi] (candidate values) and x ∈ [xLo, xHi] (current
// observations), then fits the bicubic surface.
func PrecomputeH2(nf process.NormalForecaster, l LFunc, vLo, vHi, xLo, xHi, nv, nx, fallbackHorizon int) (*H2, error) {
	if vLo >= vHi || xLo >= xHi {
		return nil, fmt.Errorf("core: PrecomputeH2 needs non-empty ranges, got v[%d,%d] x[%d,%d]", vLo, vHi, xLo, xHi)
	}
	if nv < 2 || nx < 2 {
		return nil, fmt.Errorf("core: PrecomputeH2 needs at least a 2x2 control grid, got %dx%d", nv, nx)
	}
	vs := intLinspace(vLo, vHi, nv)
	xs := intLinspace(xLo, xHi, nx)
	z := make([][]float64, len(xs))
	for j, x := range xs {
		z[j] = make([]float64, len(vs))
		for i, v := range vs {
			z[j][i] = MarginalH(nf, int(x), int(v), l, fallbackHorizon)
		}
	}
	grid, err := interp.NewGrid(vs, xs, z)
	if err != nil {
		return nil, err
	}
	return &H2{vLo: vLo, vHi: vHi, xLo: xLo, xHi: xHi, grid: grid}, nil
}

// At returns the approximate HEEB score for a tuple with value v when the
// most recent observation is last, clamped to the tabulated domain.
func (h *H2) At(last, v int) float64 {
	return h.grid.At(
		clampF(v, h.vLo, h.vHi),
		clampF(last, h.xLo, h.xHi),
	)
}

// Section returns a fast evaluator for a fixed current observation: the
// one-dimensional slice v ↦ h2(v, last) as a spline. Replacement decisions
// score many candidates against the same observation, so this amortizes the
// bicubic evaluation to one spline build per time step.
func (h *H2) Section(last int) func(v int) float64 {
	sp := h.grid.Section(clampF(last, h.xLo, h.xHi))
	return func(v int) float64 {
		return sp.At(clampF(v, h.vLo, h.vHi))
	}
}

// Accuracy compares the surface against exact recomputation on a dense
// nvEval×nxEval lattice and returns max and mean absolute error (the
// Figure 16 quality report).
func (h *H2) Accuracy(nf process.NormalForecaster, l LFunc, fallbackHorizon, nvEval, nxEval int) (maxErr, meanErr float64) {
	return h.grid.MaxAbsError(func(v, x float64) float64 {
		return MarginalH(nf, int(math.Round(x)), int(math.Round(v)), l, fallbackHorizon)
	}, nvEval, nxEval)
}

// intLinspace returns n distinct integer-valued control coordinates evenly
// covering [lo, hi] (fewer than n when the range is narrower than n points).
func intLinspace(lo, hi, n int) []float64 {
	out := make([]float64, 0, n)
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		v := math.Round(float64(lo) + float64(hi-lo)*float64(i)/float64(n-1))
		if v > prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

func clampF(v, lo, hi int) float64 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return float64(v)
}

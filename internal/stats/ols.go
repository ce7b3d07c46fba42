package stats

// LinearFit fits y_t = Intercept + Slope·t by ordinary least squares over
// t = 0..len(series)-1 and reports the coefficient of determination R².
// Model selection uses it to detect deterministic trends.
type LinearFit struct {
	Intercept float64
	Slope     float64
	R2        float64
}

// FitLinear computes the OLS trend of a series. It returns a zero fit for
// series shorter than two points.
func FitLinear(series []float64) LinearFit {
	n := len(series)
	if n < 2 {
		return LinearFit{}
	}
	var st, sy, stt, sty float64
	for t, y := range series {
		ft := float64(t)
		st += ft
		sy += y
		stt += ft * ft
		sty += ft * y
	}
	fn := float64(n)
	den := fn*stt - st*st
	if den == 0 {
		return LinearFit{Intercept: sy / fn}
	}
	slope := (fn*sty - st*sy) / den
	intercept := (sy - slope*st) / fn
	mean := sy / fn
	var ssTot, ssRes float64
	for t, y := range series {
		ssTot += (y - mean) * (y - mean)
		r := y - intercept - slope*float64(t)
		ssRes += r * r
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Intercept: intercept, Slope: slope, R2: r2}
}

// Residuals returns the OLS residuals of the fit over the series.
func (lf LinearFit) Residuals(series []float64) []float64 {
	out := make([]float64, len(series))
	for t, y := range series {
		out[t] = y - lf.Intercept - lf.Slope*float64(t)
	}
	return out
}

// Diffs returns the first differences of an integer series.
func Diffs(series []int) []float64 {
	if len(series) < 2 {
		return nil
	}
	out := make([]float64, len(series)-1)
	for i := 1; i < len(series); i++ {
		out[i-1] = float64(series[i] - series[i-1])
	}
	return out
}

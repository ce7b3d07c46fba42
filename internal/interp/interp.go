// Package interp provides the interpolation substrate for HEEB's
// precomputation technique (Theorem 5): natural cubic splines for the
// one-dimensional h1 curve of random walks with drift, and bicubic grid
// interpolation for the two-dimensional h2 surface of AR(1) streams, which
// the paper approximates with bicubic interpolation of 25 control points.
package interp

import (
	"errors"
	"fmt"
	"sort"
)

// ErrInsufficientPoints is returned when fewer control points are supplied
// than the interpolant needs.
var ErrInsufficientPoints = errors.New("interp: insufficient control points")

// Spline is a natural cubic spline through a set of strictly increasing
// control abscissae.
type Spline struct {
	xs []float64
	ys []float64
	m  []float64 // second derivatives at the knots
}

// NewSpline fits a natural cubic spline through (xs[i], ys[i]). The xs must
// be strictly increasing and there must be at least two points.
func NewSpline(xs, ys []float64) (*Spline, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, fmt.Errorf("interp: %d abscissae but %d ordinates", n, len(ys))
	}
	if n < 2 {
		return nil, ErrInsufficientPoints
	}
	for i := 1; i < n; i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("interp: abscissae not strictly increasing at index %d", i)
		}
	}
	s := &Spline{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		m:  make([]float64, n),
	}
	if n == 2 {
		return s, nil // linear segment; second derivatives stay zero
	}
	// Solve the tridiagonal system for the natural spline's second
	// derivatives via the Thomas algorithm.
	a := make([]float64, n) // sub-diagonal
	b := make([]float64, n) // diagonal
	c := make([]float64, n) // super-diagonal
	d := make([]float64, n) // right-hand side
	b[0], b[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		hi0 := xs[i] - xs[i-1]
		hi1 := xs[i+1] - xs[i]
		a[i] = hi0
		b[i] = 2 * (hi0 + hi1)
		c[i] = hi1
		d[i] = 6 * ((ys[i+1]-ys[i])/hi1 - (ys[i]-ys[i-1])/hi0)
	}
	for i := 1; i < n; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		d[i] -= w * d[i-1]
	}
	s.m[n-1] = d[n-1] / b[n-1]
	for i := n - 2; i >= 0; i-- {
		s.m[i] = (d[i] - c[i]*s.m[i+1]) / b[i]
	}
	return s, nil
}

// At evaluates the spline at x. Outside the knot range the boundary cubic
// segment is extrapolated.
func (s *Spline) At(x float64) float64 {
	n := len(s.xs)
	// Find the segment [xs[i], xs[i+1]] containing x.
	i := sort.SearchFloat64s(s.xs, x) - 1
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	h := s.xs[i+1] - s.xs[i]
	A := (s.xs[i+1] - x) / h
	B := (x - s.xs[i]) / h
	return A*s.ys[i] + B*s.ys[i+1] +
		((A*A*A-A)*s.m[i]+(B*B*B-B)*s.m[i+1])*h*h/6
}

// Grid is a two-dimensional surface z(x, y) interpolated over a rectangular
// grid of control points by repeated one-dimensional cubic splines (spline
// bicubic interpolation): a spline along x through each grid row, then a
// spline along y through the row values at the query x.
type Grid struct {
	xs, ys  []float64
	rows    []*Spline // one spline per y-row, over xs
	rowVals [][]float64
}

// NewGrid builds a bicubic interpolant over control values z[j][i] at
// (xs[i], ys[j]). Both coordinate slices must be strictly increasing with at
// least two entries each.
func NewGrid(xs, ys []float64, z [][]float64) (*Grid, error) {
	if len(ys) != len(z) {
		return nil, fmt.Errorf("interp: %d rows of values for %d y-coordinates", len(z), len(ys))
	}
	if len(xs) < 2 || len(ys) < 2 {
		return nil, ErrInsufficientPoints
	}
	g := &Grid{
		xs:      append([]float64(nil), xs...),
		ys:      append([]float64(nil), ys...),
		rows:    make([]*Spline, len(ys)),
		rowVals: make([][]float64, len(ys)),
	}
	for j, row := range z {
		if len(row) != len(xs) {
			return nil, fmt.Errorf("interp: row %d has %d values for %d x-coordinates", j, len(row), len(xs))
		}
		sp, err := NewSpline(xs, row)
		if err != nil {
			return nil, err
		}
		g.rows[j] = sp
		g.rowVals[j] = append([]float64(nil), row...)
	}
	return g, nil
}

// At evaluates the surface at (x, y).
func (g *Grid) At(x, y float64) float64 {
	col := make([]float64, len(g.ys))
	for j, sp := range g.rows {
		col[j] = sp.At(x)
	}
	sp, err := NewSpline(g.ys, col)
	if err != nil {
		// Unreachable: g.ys was validated at construction.
		panic(err)
	}
	return sp.At(y)
}

// Section returns the one-dimensional slice x ↦ z(x, y0) of the surface as
// a spline, built once so repeated queries at a fixed y cost O(log nx) each
// instead of rebuilding a column spline per call. The section interpolates
// column-major (a spline through each x-knot's column evaluated at y0, then
// a spline across x), which agrees with At exactly on the knot lattice and
// to interpolation accuracy elsewhere.
func (g *Grid) Section(y0 float64) *Spline {
	vals := make([]float64, len(g.xs))
	col := make([]float64, len(g.ys))
	for i := range g.xs {
		for j := range g.ys {
			col[j] = g.rowVals[j][i]
		}
		sp, err := NewSpline(g.ys, col)
		if err != nil {
			panic(err) // unreachable: validated at construction
		}
		vals[i] = sp.At(y0)
	}
	sp, err := NewSpline(g.xs, vals)
	if err != nil {
		panic(err)
	}
	return sp
}

// MaxAbsError evaluates the interpolant against a reference function on a
// dense lattice and returns the maximum and mean absolute errors. The
// Figure 16 experiment uses it to report approximation quality.
func (g *Grid) MaxAbsError(f func(x, y float64) float64, nx, ny int) (maxErr, meanErr float64) {
	x0, x1 := g.xs[0], g.xs[len(g.xs)-1]
	y0, y1 := g.ys[0], g.ys[len(g.ys)-1]
	var sum float64
	var count int
	for j := 0; j < ny; j++ {
		y := y0 + (y1-y0)*float64(j)/float64(ny-1)
		for i := 0; i < nx; i++ {
			x := x0 + (x1-x0)*float64(i)/float64(nx-1)
			e := g.At(x, y) - f(x, y)
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
			sum += e
			count++
		}
	}
	return maxErr, sum / float64(count)
}

package core

import (
	"math"
	"slices"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// randomScript draws one forecast per absolute time in stretches of a few
// dozen steps, each stretch moving the support bounds its own way: both up,
// both down, widening, fixed, or at random. The stretch boundaries put breaks
// of every kind into a window that slides over them.
func randomScript(rng *stats.RNG, n int) []dist.PMF {
	pmfs := make([]dist.PMF, 0, n)
	lo, width := 50, 6
	for len(pmfs) < n {
		kind := rng.IntN(5)
		for k := 8 + rng.IntN(40); k > 0 && len(pmfs) < n; k-- {
			switch kind {
			case 0:
				lo += rng.IntN(3)
			case 1:
				lo -= rng.IntN(3)
			case 2:
				lo -= rng.IntN(2)
				width += 2 * rng.IntN(2)
			case 4:
				lo, width = 30+rng.IntN(40), 1+rng.IntN(12)
			}
			p := make([]float64, width)
			for i := range p {
				if rng.IntN(4) > 0 { // exact zeros inside the support too
					p[i] = rng.Float64()
				}
			}
			p[rng.IntN(width)] = 0.5
			pmfs = append(pmfs, dist.Dense{Off: lo, P: p})
		}
		if width > 24 {
			width = 6
		}
	}
	return pmfs
}

// The window kernel visits only the Δt interval whose supports can meet the
// candidate; the reference loop visits every Δt of the horizon. They must
// agree bitwise on windows of every shape, at every slide distance, for
// equijoin and band, clipped and not.
func TestWindowKernelEqualsFullHorizonLoop(t *testing.T) {
	l := LExp{Alpha: 9}
	lt := TabulateL(l, 0)
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		const n = 600
		procs := [2]process.Process{
			newScripted(randomScript(rng, n)...),
			&process.RandomWalk{Step: dist.NewTable(-2, []float64{0.2, 0.1, 0.4, 0, 0.3}), Init: 50},
		}
		hists := [2]*process.History{process.NewHistory(), process.NewHistory()}
		fc := NewForecastCache(procs, hists)
		restricted := 0
		for t0 := 0; t0 < n; t0++ {
			hists[0].Append(0)
			hists[1].Append(hists[1].T0()%7 + 45 + rng.IntN(9))
			if rng.IntN(3) == 0 {
				continue // several steps between decisions: the next slide is longer
			}
			fc.Rebind(procs, hists)
			for k := 0; k < 6; k++ {
				s := StreamID(rng.IntN(2))
				v, eps := 25+rng.IntN(60), []int{0, 0, 1, 4}[rng.IntN(4)]
				remaining := []int{math.MaxInt, 40, 3, 0}[rng.IntN(4)]
				var ref LFunc = l
				if remaining != math.MaxInt {
					ref = LWindow{Inner: l, Remaining: remaining}
				}
				want := BandJoinH(procs[s], hists[s], v, eps, ref, 0)
				got := BandJoinHCached(fc, s, v, eps, lt, remaining)
				if got != want {
					t.Fatalf("seed %d t0 %d stream %v v %d eps %d remaining %d: window %v != full loop %v",
						seed, t0, s, v, eps, remaining, got, want)
				}
				if hz := min(remaining, HorizonFor(l, 0)); hz > 0 {
					if from, to := fc.win[s].span(hz, v-eps, v+eps); to-from < hz {
						restricted++
					}
				}
			}
		}
		if restricted == 0 {
			t.Fatalf("seed %d: no score was ever restricted to a sub-interval", seed)
		}
	}
}

// A bound's order is lost when an entry breaks it and regained once the
// window has slid past the break.
func TestWindowRegainsOrderPastABreak(t *testing.T) {
	at := func(lo int) dist.PMF { return dist.Dense{Off: lo, P: []float64{0.5, 0.5}} }
	// Supports step up by one per step, except for one step back at time 6.
	var pmfs []dist.PMF
	for tm := 0; tm < 40; tm++ {
		lo := tm
		if tm >= 6 {
			lo -= 3
		}
		pmfs = append(pmfs, at(lo))
	}
	procs := [2]process.Process{newScripted(pmfs...), nil}
	hists := [2]*process.History{process.NewHistory(0), nil}
	fc := NewForecastCache(procs, hists)
	w := &fc.win[StreamR]
	fc.At(StreamR, 12) // times 1..12: the step back at 6 is inside
	if w.ordered(loNonDecreasing) || w.ordered(hiNonDecreasing) {
		t.Fatal("the step back must break the non-decreasing order")
	}
	for tm := 1; tm <= 5; tm++ {
		hists[0].Append(0)
		fc.Rebind(procs, hists)
		fc.At(StreamR, 12)
		// At t0 = tm the window starts at time tm+1; the break is the pair
		// (5, 6), gone once the window starts at 6.
		if got, want := w.ordered(loNonDecreasing), tm+1 >= 6; got != want {
			t.Fatalf("t0 %d: lower bound ordered = %v, want %v", tm, got, want)
		}
	}
	if !w.ordered(hiNonDecreasing) || w.ordered(loNonIncreasing) {
		t.Fatal("after the break slid out the bounds are non-decreasing and not non-increasing")
	}
}

// A sliding window that has used up the room behind its tail is moved back to
// the front of its array, in place. Whatever the move does to the storage, it
// may not show: at every step, across several moves, every entry equals what
// a cache built at that step forecasts — for a trend, whose entries are the
// noise table pushed along the slope without asking the model, and for a
// scripted model, whose entries are the model's own forecasts.
func TestWindowCompactionEqualsRefill(t *testing.T) {
	const n, steps = 40, 80
	rng := stats.NewRNG(17)
	for name, p := range map[string]process.Process{
		"trend":    &process.LinearTrend{Slope: -3, Intercept: 4, Noise: dist.BoundedNormal(2, 7)},
		"uniform":  &process.LinearTrend{Slope: 1, Noise: dist.NewUniform(-4, 6)},
		"scripted": newScripted(randomScript(rng, steps+n+1)...),
	} {
		procs := [2]process.Process{p, nil}
		hists := [2]*process.History{process.NewHistory(0), nil}
		fc := NewForecastCache(procs, hists)
		w := &fc.win[StreamR]
		moves := 0
		for step := 0; step < steps; step++ {
			before := cap(w.buf) - cap(w.f) // how far the window has slid from the front of its array
			fc.At(StreamR, n)
			if len(w.buf) > 0 && before > 0 && cap(w.buf) == cap(w.f) {
				moves++
			}
			fresh := NewForecastCache(procs, hists)
			for dt := 1; dt <= n; dt++ {
				got, want := fc.At(StreamR, dt), fresh.At(StreamR, dt)
				if got.Off != want.Off || !slices.Equal(got.P, want.P) {
					t.Fatalf("%s step %d Δt %d: window holds %+v, a fresh cache %+v", name, step, dt, got, want)
				}
			}
			hists[0].Append(0)
			fc.Rebind(procs, hists)
		}
		if moves < 3 {
			t.Fatalf("%s: the window was moved %d times in %d steps, want >= 3", name, moves, steps)
		}
		if cap(w.buf) > n+n/8+8 {
			t.Fatalf("%s: a window of %d entries sits in an array of %d", name, n, cap(w.buf))
		}
	}
}

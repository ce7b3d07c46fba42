package core

import (
	"math"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func fcFixture(t *testing.T) ([2]process.Process, [2]*process.History) {
	t.Helper()
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -2, Noise: dist.BoundedNormal(2, 9)},
		&process.AR1{Phi0: 10, Phi1: 0.6, Sigma: 3, Init: 25},
	}
	rng := stats.NewRNG(7)
	hists := [2]*process.History{
		process.NewHistory(procs[0].Generate(rng.Split(), 40)...),
		process.NewHistory(procs[1].Generate(rng.Split(), 40)...),
	}
	return procs, hists
}

// The cache must hand back the same forecasts the process would produce, and
// computing each exactly once must be observable through Len.
func TestForecastCacheMemoizes(t *testing.T) {
	procs, hists := fcFixture(t)
	fc := NewForecastCache(procs, hists)
	for _, s := range []StreamID{StreamR, StreamS} {
		for dt := 1; dt <= 12; dt++ {
			got := fc.At(s, dt)
			want := procs[s].Forecast(hists[s], dt)
			for v := -30; v <= 60; v++ {
				if got.Prob(v) != want.Prob(v) {
					t.Fatalf("stream %v dt %d v %d: cached %g != direct %g", s, dt, v, got.Prob(v), want.Prob(v))
				}
			}
		}
		if fc.Len(s) != 12 {
			t.Fatalf("stream %v Len = %d, want 12", s, fc.Len(s))
		}
		// Re-reading a shorter horizon must not grow the cache.
		fc.At(s, 3)
		if fc.Len(s) != 12 {
			t.Fatalf("stream %v Len after re-read = %d", s, fc.Len(s))
		}
	}
}

// After the histories advance, Rebind must leave no forecast of the earlier
// decision readable: the independent stream's window slides by the elapsed
// step, the AR(1) stream's is emptied.
func TestForecastCacheRebindInvalidates(t *testing.T) {
	procs, hists := fcFixture(t)
	fc := NewForecastCache(procs, hists)
	fc.At(StreamR, 12)
	fc.At(StreamS, 12)
	hists[0].Append(hists[0].Last() + 1)
	hists[1].Append(hists[1].Last())
	fc.Rebind(procs, hists)
	if fc.Len(StreamR) != 11 || fc.Len(StreamS) != 0 {
		t.Fatalf("Rebind kept %d/%d forecasts, want 11/0", fc.Len(StreamR), fc.Len(StreamS))
	}
	for _, s := range []StreamID{StreamR, StreamS} {
		for dt := 1; dt <= 12; dt++ {
			got, want := fc.At(s, dt), procs[s].Forecast(hists[s], dt)
			for v := -30; v <= 60; v++ {
				if got.Prob(v) != want.Prob(v) {
					t.Fatalf("stream %v dt %d v %d: rebound %g != direct %g", s, dt, v, got.Prob(v), want.Prob(v))
				}
			}
		}
	}
}

// The cached scoring forms must be bitwise-identical to the direct ones: the
// loops are shared kernels, so any drift here is a real regression.
func TestCachedScoringBitwiseEqualsDirect(t *testing.T) {
	procs, hists := fcFixture(t)
	fc := NewForecastCache(procs, hists)
	l := LExp{Alpha: 12}
	lt := TabulateL(l, 0)
	for v := -10; v <= 50; v += 3 {
		for _, s := range []StreamID{StreamR, StreamS} {
			direct := JoinH(procs[s], hists[s], v, l, 0)
			cached := BandJoinHCached(fc, s, v, 0, lt, math.MaxInt)
			if direct != cached {
				t.Fatalf("JoinH stream %v v %d: direct %v != cached %v", s, v, direct, cached)
			}
			bd := BandJoinH(procs[s], hists[s], v, 3, l, 0)
			bc := BandJoinHCached(fc, s, v, 3, lt, math.MaxInt)
			if bd != bc {
				t.Fatalf("BandJoinH stream %v v %d: direct %v != cached %v", s, v, bd, bc)
			}
			for _, rem := range []int{-1, 0, 1, 7, 1 << 20} {
				wd := BandJoinH(procs[s], hists[s], v, 3, LWindow{Inner: l, Remaining: rem}, 0)
				wc := BandJoinHCached(fc, s, v, 3, lt, rem)
				if wd != wc {
					t.Fatalf("windowed BandJoinH stream %v v %d remaining %d: direct %v != cached %v", s, v, rem, wd, wc)
				}
			}
		}
	}
}

// LTable must be value-for-value interchangeable with its inner function,
// inside and beyond the tabulated horizon, with and without a window clip.
func TestLTableMatchesInner(t *testing.T) {
	l := LExp{Alpha: 7}
	lt := TabulateL(l, 0)
	horizon := HorizonFor(l, 0)
	for dt := 1; dt <= horizon+10; dt++ {
		if lt.At(dt) != l.At(dt) {
			t.Fatalf("LTable.At(%d) = %v, inner %v", dt, lt.At(dt), l.At(dt))
		}
	}
	if lt.Horizon(DefaultEps) != l.Horizon(DefaultEps) {
		t.Fatalf("Horizon %d != %d", lt.Horizon(DefaultEps), l.Horizon(DefaultEps))
	}
	wTab := LWindow{Inner: lt, Remaining: 5}
	wDir := LWindow{Inner: l, Remaining: 5}
	for dt := 1; dt <= 12; dt++ {
		if wTab.At(dt) != wDir.At(dt) {
			t.Fatalf("windowed LTable.At(%d) = %v, want %v", dt, wTab.At(dt), wDir.At(dt))
		}
	}
	if err := CheckLProperties(lt, horizon, true); err != nil {
		t.Fatal(err)
	}
}

// FlowExpectStepCached must decide exactly as the uncached entry point.
func TestFlowExpectStepCachedEquivalent(t *testing.T) {
	procs, hists := fcFixture(t)
	cands := make([]Candidate, 9)
	for i := range cands {
		cands[i] = Candidate{Value: 20 + i, Stream: StreamID(i % 2), Age: i % 4}
	}
	for _, window := range []int{0, 3} {
		want, err := FlowExpectStepWindow(cands, procs, hists, 6, 8, window)
		if err != nil {
			t.Fatal(err)
		}
		fc := NewForecastCache(procs, hists)
		got, err := FlowExpectStepCached(cands, fc, 6, 8, window)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Keep) != len(want.Keep) || got.ExpectedBenefit != want.ExpectedBenefit {
			t.Fatalf("window %d: cached %+v != direct %+v", window, got, want)
		}
		for i := range got.Keep {
			if got.Keep[i] != want.Keep[i] {
				t.Fatalf("window %d: keep[%d] = %d, want %d", window, i, got.Keep[i], want.Keep[i])
			}
		}
	}
}

// The score memo's contract, on a trend (slide rule) and a walk (re-offset
// rule): an unclipped non-zero sum is stored once and answered from the memo
// afterwards; a clipped sum and a zero sum never touch it; sums under another
// band or another L table, and Invalidate, empty it. Every answer is the
// reference's.
func TestScoreMemoContract(t *testing.T) {
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 2, Intercept: -2, Noise: dist.BoundedNormal(2, 9)},
		&process.GaussianWalk{Sigma: 1.5, Init: 30},
	}
	hists := [2]*process.History{process.NewHistory(0, 1, 5, 4), process.NewHistory(30, 31, 29, 33)}
	fc := NewForecastCache(procs, hists)
	l := LExp{Alpha: 6}
	lt := TabulateL(l, 0)
	for _, s := range []StreamID{StreamR, StreamS} {
		v := hists[s].Last() + 3
		memo := func() (entries, hits int) {
			entries, _, hits = fc.Memo(s)
			return
		}
		score := func(v, eps int, l LExp, lt LTable, remaining int) {
			t.Helper()
			var ref LFunc = l
			if remaining != math.MaxInt {
				ref = LWindow{Inner: l, Remaining: remaining}
			}
			if got, want := BandJoinHCached(fc, s, v, eps, lt, remaining), BandJoinH(procs[s], hists[s], v, eps, ref, 0); got != want || want == 0 {
				t.Fatalf("stream %v v %d eps %d remaining %d: %v, reference %v", s, v, eps, remaining, got, want)
			}
		}
		expect := func(what string, entries, hits int) {
			t.Helper()
			if e, h := memo(); e != entries || h != hits {
				t.Fatalf("stream %v after %s: %d entries and %d hits, want %d and %d", s, what, e, h, entries, hits)
			}
		}
		score(v, 0, l, lt, math.MaxInt)
		expect("a first sum", 1, 0)
		score(v, 0, l, lt, math.MaxInt)
		expect("the same sum again", 1, 1)
		score(v, 0, l, lt, 5)
		expect("a clipped sum", 1, 1)
		if got := BandJoinHCached(fc, s, v+10_000, 0, lt, math.MaxInt); got != 0 {
			t.Fatalf("stream %v: score %v far outside the support", s, got)
		}
		expect("a zero sum", 1, 1)
		score(v+1, 0, l, lt, math.MaxInt)
		expect("a second coordinate", 2, 1)
		score(v, 2, l, lt, math.MaxInt)
		expect("a sum under another band", 1, 1)
		l2 := LExp{Alpha: 9}
		score(v, 2, l2, TabulateL(l2, 0), math.MaxInt)
		expect("a sum under another L table", 1, 1)
		fc.Invalidate()
		expect("Invalidate", 0, 1)
	}
	// What empties a window empties its table: a history that moved backwards
	// (only a sliding window notices; a walk's increments are the same at any
	// time), and another model in the stream's place.
	for _, s := range []StreamID{StreamR, StreamS} {
		if got := BandJoinHCached(fc, s, hists[s].Last()+3, 0, lt, math.MaxInt); got == 0 {
			t.Fatalf("stream %v: zero score", s)
		}
	}
	hists = [2]*process.History{process.NewHistory(0, 1), process.NewHistory(30, 33)}
	fc.Rebind(procs, hists)
	if r, _, _ := fc.Memo(StreamR); r != 0 {
		t.Fatalf("%d sums kept against the trend after its history moved backwards", r)
	}
	if s, _, _ := fc.Memo(StreamS); s != 1 {
		t.Fatalf("%d sums kept against the walk after its history moved backwards, want 1", s)
	}
	procs[1] = &process.GaussianWalk{Sigma: 2, Init: 30}
	fc.Rebind(procs, hists)
	if s, _, _ := fc.Memo(StreamS); s != 0 {
		t.Fatalf("%d sums kept against a stream whose model was replaced", s)
	}
}

// The table is dense over the coordinates it was asked to keep and a margin,
// and candidates do not arrive in order: coordinates far apart, first above
// and then below what it covers, grow it in both directions, and growth keeps
// every sum kept before. Each first ask is summed (and is the reference's),
// each later one read; the slots never exceed the stretch asked for plus the
// two margins.
func TestScoreTableGrowsBothWays(t *testing.T) {
	procs := [2]process.Process{
		&process.LinearTrend{Slope: 2, Intercept: -2, Noise: dist.BoundedNormal(2, 9)},
		&process.GaussianWalk{Sigma: 1.5, Init: 30},
	}
	hists := [2]*process.History{process.NewHistory(0, 1, 5, 4), process.NewHistory(30, 31, 29, 33)}
	fc := NewForecastCache(procs, hists)
	l := LExp{Alpha: 6}
	lt := TabulateL(l, 0)
	for s, asks := range [2][]int{
		{150, 7, 240, 90, 6, 239}, // a trend's support runs ahead of it along the slope
		{33 + 70, 33 - 80, 33, 33 + 85, 33 - 81},
	} {
		s := StreamID(s)
		var seen []int
		lo, hi := asks[0], asks[0]
		for _, v := range asks {
			want := BandJoinH(procs[s], hists[s], v, 0, l, 0)
			_, _, before := fc.Memo(s)
			if got := BandJoinHCached(fc, s, v, 0, lt, math.MaxInt); got != want || want == 0 {
				t.Fatalf("stream %v v %d: %v, reference %v", s, v, got, want)
			}
			seen = append(seen, v)
			lo, hi = min(lo, v), max(hi, v)
			entries, slots, hits := fc.Memo(s)
			if entries != len(seen) || hits != before || slots < hi-lo+1 || slots > hi-lo+1+64 {
				t.Fatalf("stream %v after a first sum at %d: %d entries in %d slots, %d hits; want %d entries in %d..%d slots, %d hits",
					s, v, entries, slots, hits, len(seen), hi-lo+1, hi-lo+1+64, before)
			}
			for _, u := range seen {
				if got, want := BandJoinHCached(fc, s, u, 0, lt, math.MaxInt), BandJoinH(procs[s], hists[s], u, 0, l, 0); got != want {
					t.Fatalf("stream %v: sum at %d reads %v after the table grew for %d, reference %v", s, u, got, v, want)
				}
			}
			if _, _, after := fc.Memo(s); after != hits+len(seen) {
				t.Fatalf("stream %v after growing for %d: %d of %d kept sums were read from the table", s, v, after-hits, len(seen))
			}
		}
	}
}

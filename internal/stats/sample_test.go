package stats

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// binsUniform holds a histogram of draws trials, each hitting a bin with
// probability p, to what a uniform source gives: every bin within 5 binomial
// σ of the mean, and the standard deviation across bins within 30% of σ.
func binsUniform(t *testing.T, name string, hist []int, draws, p float64) {
	t.Helper()
	mean, want := draws*p, math.Sqrt(draws*p*(1-p))
	var ss float64
	for k, n := range hist {
		d := float64(n) - mean
		ss += d * d
		if math.Abs(d) > 5*want {
			t.Errorf("%s: bin %d hit %d times, mean %.0f ± %.0f", name, k, n, mean, want)
		}
	}
	if sd := math.Sqrt(ss / float64(len(hist))); sd < 0.7*want || sd > 1.3*want {
		t.Errorf("%s: bin standard deviation %.1f, a uniform source gives %.1f", name, sd, want)
	}
}

// TestRNGSampleUniform checks the replacement decision RAND actually makes —
// 2 victims out of 256 slots + 2 arrivals — over 10^6 draws: every index is
// picked equally often, and so is each of a fixed set of unordered pairs
// (first, last, adjacent, the two top indices Floyd's substitution targets).
func TestRNGSampleUniform(t *testing.T) {
	const (
		n, k  = 258, 2
		draws = 1000000
	)
	pairs := [][2]int{{0, 1}, {0, 257}, {256, 257}, {255, 256}, {128, 129}, {7, 200}, {64, 256}, {100, 257}}
	g := NewRNG(1)
	hist := make([]int, n)
	pairHits := make([]int, len(pairs))
	var dst []int
	for i := 0; i < draws; i++ {
		dst = g.Sample(n, k, dst)
		if len(dst) != k || dst[0] == dst[1] {
			t.Fatalf("draw %d: Sample(%d, %d) = %v", i, n, k, dst)
		}
		lo, hi := min(dst[0], dst[1]), max(dst[0], dst[1])
		hist[lo]++
		hist[hi]++
		for q, p := range pairs {
			if p[0] == lo && p[1] == hi {
				pairHits[q]++
			}
		}
	}
	binsUniform(t, "index", hist, draws, float64(k)/n)
	pPair := 1 / float64(n*(n-1)/2)
	mean, sigma := draws*pPair, math.Sqrt(draws*pPair*(1-pPair))
	for q, hits := range pairHits {
		if math.Abs(float64(hits)-mean) > 5*sigma {
			t.Errorf("pair %v drawn %d times, mean %.1f ± %.1f", pairs[q], hits, mean, sigma)
		}
	}
}

// TestRNGSampleEverySubset enumerates small cases, including k > n/2 where
// most draws take Floyd's substitution branch: every k-subset equally likely.
func TestRNGSampleEverySubset(t *testing.T) {
	for _, tc := range []struct{ n, k, subsets int }{{5, 2, 10}, {6, 4, 15}, {7, 6, 7}, {4, 1, 4}} {
		const draws = 300000
		g := NewRNG(uint64(10*tc.n + tc.k))
		hist := map[uint]int{}
		var dst []int
		for i := 0; i < draws; i++ {
			dst = g.Sample(tc.n, tc.k, dst)
			var mask uint
			for _, v := range dst {
				if v < 0 || v >= tc.n || mask&(1<<v) != 0 {
					t.Fatalf("Sample(%d, %d) = %v", tc.n, tc.k, dst)
				}
				mask |= 1 << v
			}
			hist[mask]++
		}
		if len(hist) != tc.subsets {
			t.Fatalf("Sample(%d, %d) produced %d distinct subsets, want %d", tc.n, tc.k, len(hist), tc.subsets)
		}
		p := 1 / float64(tc.subsets)
		mean, sigma := draws*p, math.Sqrt(draws*p*(1-p))
		for _, c := range hist {
			if math.Abs(float64(c)-mean) > 5*sigma {
				t.Errorf("Sample(%d, %d): a subset drawn %d times, mean %.0f ± %.0f", tc.n, tc.k, c, mean, sigma)
			}
		}
	}
}

// TestRNGSampleDraws pins the cost contract: exactly k IntN draws with bounds
// n−k+1 … n — the generator ends in the state k such calls leave it in — and
// nothing allocated once dst has the capacity.
func TestRNGSampleDraws(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{258, 2}, {1026, 2}, {100, 37}, {9, 9}, {5, 0}} {
		a, b := NewRNG(42), NewRNG(42)
		got := a.Sample(tc.n, tc.k, nil)
		for top := tc.n - tc.k; top < tc.n; top++ {
			b.IntN(top + 1)
		}
		sa, _ := a.MarshalBinary()
		sb, _ := b.MarshalBinary()
		if !bytes.Equal(sa, sb) {
			t.Errorf("Sample(%d, %d) left the generator somewhere other than %d IntN draws do", tc.n, tc.k, tc.k)
		}
		if again := NewRNG(42).Sample(tc.n, tc.k, make([]int, 0, tc.k)); !slices.Equal(got, again) {
			t.Errorf("Sample(%d, %d): same seed gave %v then %v", tc.n, tc.k, got, again)
		}
	}
	g := NewRNG(3)
	dst := make([]int, 0, 2)
	if allocs := testing.AllocsPerRun(1000, func() { dst = g.Sample(258, 2, dst) }); allocs != 0 {
		t.Errorf("Sample with a reused dst allocates %.1f times per call", allocs)
	}
}

// TestRNGSampleEdges: k == n is the whole range, k == 0 is empty (and keeps
// dst's storage), anything outside 0..n panics.
func TestRNGSampleEdges(t *testing.T) {
	g := NewRNG(5)
	all := g.Sample(40, 40, nil)
	slices.Sort(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("Sample(40, 40) sorted = %v", all)
		}
	}
	dst := make([]int, 3, 8)
	if got := g.Sample(10, 0, dst); len(got) != 0 || cap(got) != 8 {
		t.Errorf("Sample(10, 0) = %v (cap %d), want empty over the same storage", got, cap(got))
	}
	if got := g.Sample(0, 0, nil); len(got) != 0 {
		t.Errorf("Sample(0, 0) = %v", got)
	}
	for _, tc := range []struct{ n, k int }{{3, 4}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(%d, %d) did not panic", tc.n, tc.k)
				}
			}()
			g.Sample(tc.n, tc.k, nil)
		}()
	}
}

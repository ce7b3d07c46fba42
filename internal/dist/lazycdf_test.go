package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// eagerSample is Sample as it was when NewTable filled the running sums up
// front: a binary search over sums built before the first draw. It is the
// oracle the guide-table search is held to, NaN, infinities and draws
// outside [0, 1) included.
func eagerSample(t *Table, u float64) int {
	cum := make([]float64, len(t.Probs))
	var c float64
	for i, p := range t.Probs {
		c += p
		cum[i] = c
	}
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return t.Offset + lo
}

// sampleProbes returns the draws a guide-table search can get wrong on tab:
// every running sum and every bucket edge j/m, each with its two float
// neighbours, and the values outside [0, 1) — −0, the float just under 1, 1,
// −1, ±Inf and NaN. tab must have been sampled, so its bucket count is read
// from the index it built.
func sampleProbes(tab *Table) []float64 {
	us := []float64{0, math.Copysign(0, -1), math.Nextafter(1, 0), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	around := func(x float64) {
		us = append(us, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	var c float64
	for _, p := range tab.Probs {
		c += p
		around(c)
	}
	m := len(tab.cdf.Load().guide) - 1
	for j := 0; j <= m; j++ {
		around(float64(j) / float64(m))
	}
	return us
}

// checkSample fails t at the first draw in us where Sample and the eager
// binary search disagree.
func checkSample(t *testing.T, name string, tab *Table, us []float64) {
	t.Helper()
	for _, u := range us {
		if got, want := tab.Sample(u), eagerSample(tab, u); got != want {
			t.Fatalf("%s: Sample(%v) = %d, eager search %d", name, u, got, want)
		}
	}
}

// The index Sample builds on its first draw answers what a binary search over
// sums built up front answered, for every u: over random tables, the ledger's
// two noise tables and the shapes that stress a guide table — one entry,
// interior zeros, a sliver of mass 1e-300 inside and at either end, and sums
// that end below 1 — at random draws and at every probe of sampleProbes.
func TestLazySampleEqualsEagerCDF(t *testing.T) {
	tables := map[string]*Table{
		"BoundedNormal(13.2,40)": BoundedNormal(13.2, 40),
		"BoundedNormal(20,60)":   BoundedNormal(20, 60),
		"point mass":             NewTable(7, []float64{3}),
		"interior zeros":         NewTable(-2, []float64{1, 0, 0, 2, 0, 0, 0, 0, 1}),
		"sliver inside":          NewTable(0, []float64{1, 1e-300, 1}),
		"sliver first":           NewTable(0, []float64{1e-300, 1, 1}),
		"sliver last":            NewTable(0, []float64{1, 1, 1e-300}),
		"sums end below 1":       {Offset: 4, Probs: []float64{0.25, 0, 0.25, 0.25}},
	}
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 300; trial++ {
		w := make([]float64, 1+rng.IntN(60))
		for i := range w {
			if rng.IntN(4) > 0 {
				w[i] = rng.Float64()
			}
		}
		w[rng.IntN(len(w))] = 1 + rng.Float64()
		tables[fmt.Sprintf("trial %d", trial)] = NewTable(rng.IntN(200)-100, w)
	}
	for name, tab := range tables {
		if tab.cdf.Load() != nil {
			t.Fatalf("%s: the sampling index was built before any draw", name)
		}
		us := make([]float64, 50)
		for i := range us {
			us[i] = rng.Float64()
		}
		checkSample(t, name, tab, us)
		checkSample(t, name, tab, sampleProbes(tab))
	}
}

// fuzzWeights decodes up to 64 table weights, one a byte: the low five bits
// are the mantissa (zero makes a zero weight) and the high three scale it by
// 2^-40 each, down to 2^-280, so slivers and interior zeros are common. It
// returns nil when every weight is zero.
func fuzzWeights(raw []byte) []float64 {
	if len(raw) > 64 {
		raw = raw[:64]
	}
	w := make([]float64, len(raw))
	var any bool
	for i, b := range raw {
		w[i] = math.Ldexp(float64(b&31), -40*int(b>>5))
		any = any || w[i] > 0
	}
	if !any {
		return nil
	}
	return w
}

// FuzzTableSample: for fuzzed weights, Sample equals the eager binary search
// at the fuzzed draw and at every probe of sampleProbes.
func FuzzTableSample(f *testing.F) {
	f.Add([]byte{1, 2, 3}, 0.5)
	f.Add([]byte{31, 0, 0, 31}, 0.5)
	f.Add([]byte{1, 0xe1, 1}, math.Nextafter(0.5, 0))
	f.Fuzz(func(t *testing.T, raw []byte, u float64) {
		w := fuzzWeights(raw)
		if w == nil {
			return
		}
		tab := NewTable(0, w)
		checkSample(t, "fuzzed table", tab, []float64{u})
		checkSample(t, "fuzzed table", tab, sampleProbes(tab))
	})
}

// Tables are shared across shard goroutines, so the first draw may come from
// several at once; under -race this is the check that the sums are published
// safely, and every goroutine must draw what the eager search draws.
func TestLazySampleConcurrentFirstDraw(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		tab := BoundedNormal(3.3, 10)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					u := float64(g*64+i) / 512
					if got, want := tab.Sample(u), eagerSample(tab, u); got != want {
						t.Errorf("goroutine %d: Sample(%v) = %d, eager search %d", g, u, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// A Table not built by NewTable samples from its Probs. When NewTable filled
// the sums, a literal had none and returned Offset on every draw.
func TestTableLiteralSamples(t *testing.T) {
	tab := &Table{Offset: 10, Probs: []float64{0.25, 0.5, 0.25}}
	for _, c := range []struct {
		u    float64
		want int
	}{{0, 10}, {0.24, 10}, {0.25, 11}, {0.74, 11}, {0.75, 12}, {0.99, 12}} {
		if got := tab.Sample(c.u); got != c.want {
			t.Errorf("Sample(%v) = %d, want %d", c.u, got, c.want)
		}
	}
}

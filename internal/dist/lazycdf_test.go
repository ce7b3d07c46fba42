package dist

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// eagerSample is Sample as it was when NewTable filled the running sums up
// front: a binary search over sums built before the first draw.
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

// The sums Sample builds on its first draw are the sums NewTable used to
// build: over random tables and draws, including the edges 0 and just under
// 1 and the sums themselves, every draw lands where the eager search does.
func TestLazySampleEqualsEagerCDF(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 300; trial++ {
		w := make([]float64, 1+rng.IntN(60))
		for i := range w {
			if rng.IntN(4) > 0 {
				w[i] = rng.Float64()
			}
		}
		w[rng.IntN(len(w))] = 1 + rng.Float64()
		tab := NewTable(rng.IntN(200)-100, w)
		if tab.cum.Load() != nil {
			t.Fatal("NewTable built the sampling sums before any draw")
		}
		us := []float64{0, 0.9999999999999999}
		for i := 0; i < 50; i++ {
			us = append(us, rng.Float64())
		}
		var c float64
		for _, p := range tab.Probs {
			c += p
			us = append(us, c)
		}
		for _, u := range us {
			if got, want := tab.Sample(u), eagerSample(tab, u); got != want {
				t.Fatalf("trial %d: Sample(%v) = %d, eager search %d", trial, u, got, want)
			}
		}
	}
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

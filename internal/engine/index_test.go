package engine

import (
	"testing"
	"unsafe"

	"stochstream/internal/stats"
)

// TestIndexRecyclesPostings is the ownership property of the equi index's
// recycled posting slices, over random adds and removes on few keys: the key
// domain alternates between 4 keys (buckets of many postings) and 64 keys
// (buckets thin out and empty, by eviction and by window expiry), and after
// every step the index agrees with the cache (CheckInvariants), no two live
// buckets share backing storage — with each other or with a spare — and every
// spare slice is empty; there are never more spares than the budget. A slice
// that has been spare must turn up under a live bucket again, or nothing was
// recycled.
func TestIndexRecyclesPostings(t *testing.T) {
	const budget = 24
	j, err := NewJoin(Config{CacheSize: budget, Window: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	wasSpare := map[*int]bool{}
	recycled := 0
	for step := 0; step < 6000; step++ {
		keys := 4
		if step/150%2 == 1 {
			keys = 64
		}
		j.Step(Tuple{Key: rng.IntN(keys)}, Tuple{Key: rng.IntN(keys)})
		if err := j.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		owner := map[*int]string{}
		claim := func(who string, s []int) {
			if cap(s) == 0 {
				return
			}
			base := unsafe.SliceData(s)
			if prev, ok := owner[base]; ok {
				t.Fatalf("step %d: %s and %s share backing storage", step, prev, who)
			}
			owner[base] = who
		}
		for x, s := range j.spare {
			if len(s) != 0 {
				t.Fatalf("step %d: spare slice %d holds %d postings", step, x, len(s))
			}
			claim("a spare slice", s)
			wasSpare[unsafe.SliceData(s)] = true
		}
		for _, m := range j.equi {
			for _, b := range m {
				claim("a live bucket", b.rest)
				if len(b.rest) > 0 && wasSpare[unsafe.SliceData(b.rest)] {
					recycled++
					delete(wasSpare, unsafe.SliceData(b.rest))
				}
			}
		}
		if len(j.spare) > budget {
			t.Fatalf("step %d: %d spare slices for a %d-slot cache", step, len(j.spare), budget)
		}
	}
	if recycled == 0 {
		t.Fatal("no spare slice was ever taken by a bucket's second posting")
	}
}

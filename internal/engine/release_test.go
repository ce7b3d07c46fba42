package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// trackedPayload is a payload whose collection the test can observe.
type trackedPayload struct{ _ [64]byte }

// matchedBatch builds n steps whose R and S arrivals share a key no other
// step uses, so each step emits one same-time pair, and gives every arrival a
// finalizer-tracked payload. It lives in its own frame so that the caller
// holds no reference once the batch has been stepped.
//
//go:noinline
func matchedBatch(n int, freed *atomic.Int64) []TuplePair {
	mk := func() *trackedPayload {
		p := new(trackedPayload)
		runtime.SetFinalizer(p, func(*trackedPayload) { freed.Add(1) })
		return p
	}
	batch := make([]TuplePair, n)
	for i := range batch {
		batch[i] = TuplePair{R: Tuple{Key: 1000 + i, Payload: mk()}, S: Tuple{Key: 1000 + i, Payload: mk()}}
	}
	return batch
}

// TestShortOutputReleasesLongOutputsPayloads: the output buffers are reused
// from call to call, and a call's pairs are the caller's only until the next
// one. A long output carries tracked payloads; the calls after it evict those
// tuples from the cache and emit at most one pair each, so the buffer's later
// positions are never written again. Every payload must be collectable, and
// the buffer zero beyond its length. At the parent commit the buffers were
// truncated, not cleared, and kept all but the first pair's payloads
// reachable for the life of the operator.
func TestShortOutputReleasesLongOutputsPayloads(t *testing.T) {
	for name, long := range map[string]func(j *Join, freed *atomic.Int64) (tracked int64){
		// 64 steps in one batch, a same-time pair each.
		"StepBatch": func(j *Join, freed *atomic.Int64) int64 {
			if got := len(j.StepBatch(matchedBatch(64, freed))); got != 64 {
				t.Fatalf("the long batch emitted %d pairs, want 64", got)
			}
			return 128
		},
		// Four S tuples cached on one key, then the R arrival that joins them all.
		"Step": func(j *Join, freed *atomic.Int64) int64 {
			for _, tp := range matchedBatch(4, freed) {
				j.Step(Tuple{Key: 5000 + tp.R.Key, Payload: tp.R.Payload}, Tuple{Key: 7, Payload: tp.S.Payload})
			}
			tp := matchedBatch(1, freed)[0]
			if got := len(j.Step(Tuple{Key: 7, Payload: tp.R.Payload}, Tuple{Key: 9000, Payload: tp.S.Payload})); got != 4 {
				t.Fatalf("the long step emitted %d pairs, want 4", got)
			}
			return 10
		},
	} {
		t.Run(name, func(t *testing.T) {
			j, err := NewJoin(Config{CacheSize: 8, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var freed atomic.Int64
			tracked := long(j, &freed)
			for i := 0; i < 16; i++ {
				short := []TuplePair{{R: Tuple{Key: i}, S: Tuple{Key: 100 + i}}, {R: Tuple{Key: 200 + i}, S: Tuple{Key: 200 + i}}}
				if name == "Step" {
					j.Step(short[0].R, short[0].S)
					j.Step(short[1].R, short[1].S)
				} else if got := len(j.StepBatch(short)); got != 1 {
					t.Fatalf("short batch %d emitted %d pairs, want 1", i, got)
				}
			}
			for _, buf := range [][]Pair{j.out, j.batchOut} {
				for x, p := range buf[len(buf):cap(buf)] {
					if p != (Pair{}) {
						t.Fatalf("output buffer keeps %+v at position %d beyond its length %d", p, len(buf)+x, len(buf))
					}
				}
			}
			for cycle := 0; cycle < 10 && freed.Load() < tracked; cycle++ {
				runtime.GC()
				time.Sleep(time.Millisecond) // finalizers run on their own goroutine
			}
			if got := freed.Load(); got != tracked {
				t.Fatalf("%d of %d payloads of the long output were collected; the rest are still reachable from the operator", got, tracked)
			}
		})
	}
}

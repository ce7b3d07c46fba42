package shardrt

import (
	"sort"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// sortPairs is the merge-order oracle: the comparison sort of a pair listing
// by (trigger, partner), which the runtime's per-shard ordering plus N-way
// merge must reproduce exactly.
func sortPairs(out []Pair) {
	sort.Slice(out, func(a, b int) bool {
		ta, pa := mergeKey(out[a])
		tb, pb := mergeKey(out[b])
		if ta != tb {
			return ta < tb
		}
		return pa < pb
	})
}

// shardEngines is the reply path's input side without the worker plumbing:
// real shard engines behind the differential harness's router, so the
// per-shard outputs carry the engine's own emission order.
type shardEngines struct {
	rr   *refRouter
	engs []*engine.Join
}

func newShardEngines(tb testing.TB, shards, totalCache int) *shardEngines {
	tb.Helper()
	se := &shardEngines{rr: newRefRouter(shards)}
	for i := 0; i < shards; i++ {
		eng, err := engine.NewJoin(engine.Config{CacheSize: totalCache / shards, Seed: shardSeed(1, i)})
		if err != nil {
			tb.Fatal(err)
		}
		se.engs = append(se.engs, eng)
	}
	return se
}

// step routes one batch and returns every shard's batch beside its
// StepBatch output (engine-owned until that shard steps again).
func (se *shardEngines) step(steps []Step, drain bool) ([][]engine.TuplePair, [][]engine.Pair) {
	batches := se.rr.route(steps, drain)
	outs := make([][]engine.Pair, len(batches))
	for i, batch := range batches {
		outs[i] = se.engs[i].StepBatch(batch)
	}
	return batches, outs
}

// TestMergeRunsEqualsSort is the reply path's ordering property: ordering
// each shard's engine output on its own and N-way merging the runs gives
// exactly the comparison sort of the concatenation. The streams are skewed
// (R draws from half of S's key range and a fifth of S's arrivals are
// NoValue) so every shard's lanes drift apart: a lagging arrival then meets
// cached partners with HIGHER sequence numbers, the trigger is the partner,
// and the engine's step order is not merge order. Twelve keys over eight
// shards leave shards idle, and the closing drain pads the longer lanes.
func TestMergeRunsEqualsSort(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		const n = 600
		rng := stats.NewRNG(uint64(40 + shards))
		se := newShardEngines(t, shards, shards*3*n) // never evicts
		stepOf := map[uint64]int{}                   // seq → shard-local step that cached it
		clock := 0
		var lagged, reordered, idle, total int

		check := func(label string, steps []Step, drain bool) {
			batches, outs := se.step(steps, drain)
			for _, batch := range batches {
				for _, tp := range batch {
					clock++
					for _, tu := range []engine.Tuple{tp.R, tp.S} {
						if tu.Key != process.NoValue { // drain padding carries no sequence number
							stepOf[tu.Seq] = clock
						}
					}
				}
			}
			var want []Pair
			var runs [][]Pair
			for i, out := range outs {
				if len(out) == 0 {
					idle++
				}
				before := len(want)
				for _, p := range out {
					want = append(want, convertPair(p, i))
				}
				run := sortedRun(out, i)
				if !diffPairsEqual(run, want[before:]) {
					reordered++
				}
				runs = append(runs, run)
			}
			for _, p := range want {
				if trig, part := mergeKey(p); stepOf[trig] < stepOf[part] {
					lagged++
				}
			}
			sortPairs(want)
			got := mergeRuns(nil, runs)
			if !diffPairsEqual(got, want) {
				t.Fatalf("shards=%d %s: merge diverges from the sort:\n  merged %v\n  sorted %v", shards, label, got, want)
			}
			for i, run := range runs {
				if run != nil {
					t.Fatalf("shards=%d %s: run %d still referenced after the merge", shards, label, i)
				}
			}
			total += len(got)
		}

		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.IntN(90))
			steps := make([]Step, hi-lo)
			for i := range steps {
				steps[i].R = engine.Tuple{Key: rng.IntN(6), Payload: lo + i}
				steps[i].S = engine.Tuple{Key: rng.IntN(12), Payload: ^(lo + i)}
				if rng.IntN(5) == 0 {
					steps[i].S.Key = process.NoValue
				}
			}
			check("batch", steps, false)
			lo = hi
		}
		check("flush", nil, true)

		if total == 0 || lagged == 0 {
			t.Fatalf("shards=%d: %d pairs, %d with a cached trigger: the lane-lag case was not exercised", shards, total, lagged)
		}
		if reordered == 0 {
			t.Fatalf("shards=%d: every engine output was already in merge order", shards)
		}
		if shards == 8 && idle == 0 {
			t.Fatal("shards=8: no idle shard was merged")
		}
	}
}

// BenchmarkDispatchMerge times the coordinator-visible reply path of one
// dispatch at the ledger's fanout shape — 4 shards, 64 keys, 64-byte
// payloads, 1024 slots under RAND, 256-step batches, ~4000 pairs a dispatch:
// every shard's copy-out in merge order plus the N-way merge into a reused
// buffer, over one captured set of engine outputs.
func BenchmarkDispatchMerge(b *testing.B) {
	const shards, batch, warm = 4, 256, 16
	rng := stats.NewRNG(7)
	se := newShardEngines(b, shards, 1024)
	var outs [][]engine.Pair
	for r := 0; r <= warm; r++ {
		steps := make([]Step, batch)
		for i := range steps {
			steps[i].R = engine.Tuple{Key: rng.IntN(64), Payload: make([]byte, 64)}
			steps[i].S = engine.Tuple{Key: rng.IntN(64), Payload: make([]byte, 64)}
		}
		_, outs = se.step(steps, false)
	}
	pairs := 0
	for _, out := range outs {
		pairs += len(out)
	}
	var out []Pair
	runs := make([][]Pair, 0, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		runs = runs[:0]
		for i := range outs {
			runs = append(runs, sortedRun(outs[i], i))
		}
		out = mergeRuns(out[:0], runs)
	}
	if len(out) != pairs {
		b.Fatalf("merged %d pairs of %d", len(out), pairs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
	b.ReportMetric(float64(pairs), "pairs/op")
}

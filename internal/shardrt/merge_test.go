package shardrt

import (
	"sort"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// mergeKey is the order the merged output is in: the later (triggering)
// arrival's sequence number first, then the cached partner's.
func mergeKey(p Pair) (trigger, partner uint64) {
	if p.RSeq >= p.SSeq {
		return p.RSeq, p.SSeq
	}
	return p.SSeq, p.RSeq
}

// sortPairs is the merge-order oracle: the comparison sort of a pair listing
// by (trigger, partner), which the workers' key sort plus the coordinator's
// N-way keyed merge must reproduce exactly.
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

// TestMergeRunsEqualsSort is the reply path's ordering property: keying and
// sorting each shard's engine output on its own and N-way merging the keyed
// runs — each engine pair converted once, straight from the engine's slice —
// gives exactly the comparison sort of the converted concatenation. The
// streams are skewed (R draws from half of S's key range and a fifth of S's
// arrivals are NoValue) so every shard's lanes drift apart: a lagging arrival
// then meets cached partners with HIGHER sequence numbers, the trigger is the
// partner, and the engine's step order is not merge order. An arrival that
// meets several partners ties them on the trigger; twelve keys over eight
// shards leave shards idle (empty runs); batches of up to 90 steps put runs
// on both sides of the 32 keys a shard has room for; and the closing drain
// pads the longer lanes.
func TestMergeRunsEqualsSort(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		const n = 600
		rng := stats.NewRNG(uint64(40 + shards))
		se := newShardEngines(t, shards, shards*3*n) // never evicts
		rooms := make([][32]runKey, shards)          // the shards' key fields
		stepOf := map[uint64]int{}                   // seq → shard-local step that cached it
		clock := 0
		var lagged, reordered, idle, inRoom, beyondRoom, tied, total int

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
			var runs []run
			for i, out := range outs {
				for _, p := range out {
					want = append(want, convertPair(p, i))
				}
				keys := sortKeys(rooms[i][:0], out)
				switch {
				case len(keys) == 0:
					idle++
				case &keys[0] == &rooms[i][0]:
					inRoom++
				default:
					beyondRoom++
				}
				for k := range keys {
					if keys[k].idx != k {
						reordered++
						break
					}
				}
				for k := 1; k < len(keys); k++ {
					if keys[k].trigSeq == keys[k-1].trigSeq {
						tied++
						break
					}
				}
				runs = append(runs, run{keys: keys, pairs: out, shard: i})
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
			for i, r := range runs {
				if r.keys != nil || r.pairs != nil {
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
		if reordered == 0 || tied == 0 {
			t.Fatalf("shards=%d: %d engine outputs out of merge order, %d with a tie on the trigger; want both", shards, reordered, tied)
		}
		if beyondRoom == 0 {
			t.Fatalf("shards=%d: no run outgrew the shard's 32 keys", shards)
		}
		if shards == 8 && (idle == 0 || inRoom == 0) {
			t.Fatalf("shards=8: %d idle shards merged, %d runs keyed in the shard's own room; want both", idle, inRoom)
		}
	}
}

// BenchmarkDispatchMerge times the coordinator-visible reply path of one
// dispatch at the ledger's fanout shape — 4 shards, 64 keys, 64-byte
// payloads, 1024 slots under RAND, 256-step batches, ~4000 pairs a dispatch:
// every shard's key sort plus the N-way keyed merge into a reused buffer,
// over one captured set of engine outputs.
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
	runs := make([]run, 0, shards)
	rooms := make([][32]runKey, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		runs = runs[:0]
		for i := range outs {
			runs = append(runs, run{keys: sortKeys(rooms[i][:0], outs[i]), pairs: outs[i], shard: i})
		}
		out = mergeRuns(out[:0], runs)
	}
	if len(out) != pairs {
		b.Fatalf("merged %d pairs of %d", len(out), pairs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
	b.ReportMetric(float64(pairs), "pairs/op")
}

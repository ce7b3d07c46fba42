package shardrt

import (
	"bytes"
	"cmp"
	"math"
	"runtime/debug"
	"slices"
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
// by (trigger, partner), which the workers' stable pass on the trigger alone
// plus the coordinator's N-way keyed merge must reproduce exactly.
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

// step routes one batch and returns every shard's batch beside its StepRun
// output (engine-owned until that shard steps again).
func (se *shardEngines) step(steps []Step) ([][]engine.TuplePair, []engine.Batch) {
	batches := se.rr.route(steps)
	outs := make([]engine.Batch, len(batches))
	for i, batch := range batches {
		outs[i] = se.engs[i].StepRun(batch)
	}
	return batches, outs
}

// batchPairs is one shard's numbered batch written out as the runtime's
// pairs, in the engine's order.
func batchPairs(b engine.Batch, shard int) []Pair {
	var out []Pair
	for _, p := range b.Pairs {
		out = append(out, convertPair(engine.Pair{Time: b.Time + int(p.Step), R: b.Tuples[p.R], S: b.Tuples[p.S], SameTime: p.SameTime}, shard))
	}
	return out
}

// TestMergeRunsEqualsSort is the reply path's ordering property: keying each
// shard's engine output on its own, ordering the keys stably by trigger and
// N-way merging the keyed runs — each engine pair taken once, as numbers,
// straight from the engine's batch — gives exactly the (trigger, partner)
// comparison sort of the converted concatenation, though no partner is ever
// compared; and the merged reply names each tuple once. The streams are
// skewed (skewedSteps), so a step's two arrivals often share a shard and both
// meet cached partners: the engine interleaves their pairs by partner, and its
// step order is not merge order. An arrival that meets several partners ties
// them on the trigger; twelve keys over eight shards leave shards idle (empty
// runs); batches of up to 90 steps put runs on both sides of the 32 keys a
// shard has room for. Every trigger is an arrival of the batch whose reply
// carries the pair: nothing is delivered late.
func TestMergeRunsEqualsSort(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		const n = 600
		rng := stats.NewRNG(uint64(40 + shards))
		all := skewedSteps(uint64(40+shards), n)
		se := newShardEngines(t, shards, shards*2*n) // never evicts
		rooms := make([][32]runKey, shards)          // the shards' key fields
		var reordered, idle, inRoom, beyondRoom, tied, total int

		check := func(lo int, steps []Step) {
			_, outs := se.step(steps)
			var want []Pair
			var runs []run
			for i, out := range outs {
				want = append(want, batchPairs(out, i)...)
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
				runs = append(runs, run{keys: keys, batch: out, shard: i})
			}
			for _, p := range want {
				if trig, _ := mergeKey(p); trig < uint64(2*lo) {
					t.Fatalf("shards=%d batch at %d: pair %+v's trigger arrived in an earlier batch", shards, lo, p)
				}
			}
			sortPairs(want)
			reply := mergeRuns(Reply{}, runs)
			got, _ := new(Runtime).pairs(&reply, nil)
			if !diffPairsEqual(got, want) {
				t.Fatalf("shards=%d batch at %d: merge diverges from the sort:\n  merged %v\n  sorted %v", shards, lo, got, want)
			}
			named := map[uint64]bool{} // the seq of each listed tuple: one arrival each
			for _, tu := range reply.tuples {
				if named[tu.Seq] {
					t.Fatalf("shards=%d batch at %d: the reply lists tuple %d twice", shards, lo, tu.Seq)
				}
				named[tu.Seq] = true
			}
			for i, r := range runs {
				if r.keys != nil || r.batch.Tuples != nil || r.batch.Pairs != nil {
					t.Fatalf("shards=%d batch at %d: run %d still referenced after the merge", shards, lo, i)
				}
			}
			total += len(got)
		}

		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.IntN(90))
			check(lo, all[lo:hi])
			lo = hi
		}

		if total == 0 || reordered == 0 || tied == 0 {
			t.Fatalf("shards=%d: %d pairs, %d engine outputs out of merge order, %d with a tie on the trigger; want all three", shards, total, reordered, tied)
		}
		if beyondRoom == 0 {
			t.Fatalf("shards=%d: no run outgrew the shard's 32 keys", shards)
		}
		if shards == 8 && (idle == 0 || inRoom == 0) {
			t.Fatalf("shards=8: %d idle shards merged, %d runs keyed in the shard's own room; want both", idle, inRoom)
		}
	}
}

// TestSortKeysStableByTrigger is the pass on its own, against the library's
// stable sort on the trigger: every length around the 32-key room, every
// starting order, over a narrow trigger range (1 000 keys repeat every
// trigger, so stability is exercised, not assumed) and over all 64 bits. Keys
// that fit the room stay in it and allocate nothing; a longer run is exactly
// one allocation.
//
// testing.AllocsPerRun counts every malloc in the process, and the runtime's
// first collection mallocs a few objects of its own as it starts its mark
// workers (seven on two Ps). Run alone, this test is where the binary reaches
// its first 4 MB heap goal, and that collection fell inside the five runs of
// a 1 000-key case: 5 + 7 mallocs read as 2 allocations a run. Collection is
// off while the test runs, so what is counted is sortKeys alone; the bounds
// are unchanged.
func TestSortKeysStableByTrigger(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := stats.NewRNG(26)
	ranges := []struct {
		name     string
		lo, span uint64
	}{
		{"narrow", 1<<16 - 50, 100},
		{"64-bit", 0, 0}, // span 0: every uint64
	}
	orders := []string{"equal", "ordered", "reversed", "random"}
	for _, n := range []int{0, 1, 32, 33, 1000} {
		for _, r := range ranges {
			for _, order := range orders {
				trigs := make([]uint64, n)
				for i := range trigs {
					switch {
					case order == "equal":
						trigs[i] = r.lo + 7
					case r.span == 0:
						trigs[i] = uint64(rng.IntN(1<<32))<<32 | uint64(rng.IntN(1<<32))
					default:
						trigs[i] = r.lo + uint64(rng.IntN(int(r.span)))
					}
				}
				if r.span == 0 && order != "equal" && n >= 2 {
					trigs[0], trigs[n-1] = 0, math.MaxUint64
				}
				switch order {
				case "ordered":
					slices.Sort(trigs)
				case "reversed":
					slices.Sort(trigs)
					slices.Reverse(trigs)
				}
				pairs := engine.Batch{Tuples: make([]engine.Tuple, 2*n), Pairs: make([]engine.PairRef, n)}
				want := make([]runKey, n)
				for i, trig := range trigs {
					// The trigger is whichever side is later; alternate it.
					// Pair i names tuples 2i and 2i+1.
					pairs.Pairs[i] = engine.PairRef{R: uint32(2 * i), S: uint32(2*i + 1)}
					pairs.Tuples[2*i].Seq, pairs.Tuples[2*i+1].Seq = trig, trig/2
					if i%2 == 1 {
						pairs.Tuples[2*i].Seq, pairs.Tuples[2*i+1].Seq = trig/3, trig
					}
					want[i] = runKey{trigSeq: trig, idx: i}
				}
				slices.SortStableFunc(want, func(a, b runKey) int { return cmp.Compare(a.trigSeq, b.trigSeq) })

				var room [32]runKey
				got := sortKeys(room[:0], pairs)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d %s %s: keys diverge from the stable sort on the trigger:\n  got  %v\n  want %v", n, r.name, order, got, want)
				}
				inRoom := n > 0 && &got[0] == &room[0]
				allocs := testing.AllocsPerRun(5, func() { sortKeys(room[:0], pairs) })
				if fits := n <= len(room); (n > 0 && inRoom != fits) || (fits && allocs != 0) || (!fits && allocs != 1) {
					t.Fatalf("n=%d %s %s: keys in the caller's room: %v, %.0f allocations; want the room and none up to %d keys, one allocation beyond",
						n, r.name, order, inRoom, allocs, len(room))
				}
			}
		}
	}
}

// TestTriggerRunsLeaveTheEngineInPartnerOrder pins the invariant the one-key
// merge rests on, at the engines: an engine emits a step's matches in cache
// (arrival) order, so the pairs of one trigger leave it partner-ascending; and
// a shard steps each arrival at its own global step, so all of a trigger's
// pairs come from that one step, in the batch that ingested it. Everything
// that touches a cache between two of a trigger's pairs is switched on:
// evicting engines (RAND on six slots a shard, HEEB on Markov models), two-
// and one-sided steps, and a Checkpoint/Restore into a fresh runtime. The
// engines watched are mirrors — the shards' configuration, stepped with the
// batches the differential harness's router derives — and every batch their
// output, comparison-sorted, must be the runtime's reply, so what they emit is
// what the runtime's engines emit, before the restore and after it.
func TestTriggerRunsLeaveTheEngineInPartnerOrder(t *testing.T) {
	const n, batch, cut = 1500, 53, 11
	// HEEB's models: unlike a trend's, a ring walk's tuples keep meeting
	// partners while they are cached.
	var walks [2]process.Process
	walked := skewedSteps(0, n)
	for side := range walks {
		m := ringWalk(t)
		walks[side] = m
		for i, k := range m.Generate(stats.NewRNG(uint64(31+side)), n) {
			if side == 0 && walked[i].R.Key != process.NoValue {
				walked[i].R.Key = k
			} else if side == 1 && walked[i].S.Key != process.NoValue {
				walked[i].S.Key = k
			}
		}
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps []Step
	}{
		{"rand", Config{Shards: 4, TotalCache: 24, Seed: 3}, skewedSteps(9, n)},
		{"heeb", Config{Shards: 4, TotalCache: 32, Procs: walks, Seed: 5}, walked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { rt.Shutdown() }()
			mirrors := make([]*engine.Join, tc.cfg.Shards)
			for i, sm := range rt.Metrics().Shards {
				mirrors[i], err = engine.NewJoin(engine.Config{CacheSize: sm.Budget, Procs: tc.cfg.Procs, Seed: shardSeed(tc.cfg.Seed, i)})
				if err != nil {
					t.Fatal(err)
				}
			}
			rr := newRefRouter(tc.cfg.Shards)
			type emitted struct {
				partner uint64
				time    int
			}
			last := map[uint64]emitted{} // trigger → its latest pair; a trigger lives in one shard
			var repeated, afterRestore, evicted int
			restored := false

			check := func(label string, got []Pair, batches [][]engine.TuplePair) {
				var want []Pair
				for i, b := range batches {
					for _, p := range mirrors[i].StepBatch(b) {
						trig, part := max(p.R.Seq, p.S.Seq), min(p.R.Seq, p.S.Seq)
						if prev, seen := last[trig]; seen {
							if part <= prev.partner || p.Time != prev.time {
								t.Fatalf("%s: shard %d emitted trigger %d's partner %d (step %d) after its partner %d (step %d)",
									label, i, trig, part, p.Time, prev.partner, prev.time)
							}
							repeated++
							if restored {
								afterRestore++
							}
						}
						if p.Time != int(trig/2) {
							t.Fatalf("%s: shard %d emitted trigger %d at step %d, not its own", label, i, trig, p.Time)
						}
						last[trig] = emitted{part, p.Time}
						want = append(want, convertPair(p, i))
					}
				}
				sortPairs(want)
				if !diffPairsEqual(got, want) {
					t.Fatalf("%s: the mirrors' output is not the runtime's reply:\n  runtime %v\n  mirrors %v", label, got, want)
				}
			}

			for b, lo := 0, 0; lo < n; b, lo = b+1, lo+batch {
				steps := tc.steps[lo:min(n, lo+batch)]
				got, err := rt.IngestBatch(steps)
				if err != nil {
					t.Fatal(err)
				}
				check("batch", got, rr.route(steps))
				if b != cut {
					continue
				}
				var ckpt bytes.Buffer
				if err := rt.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				rt.Shutdown()
				if rt, err = New(tc.cfg); err != nil {
					t.Fatal(err)
				}
				if err := rt.Restore(&ckpt); err != nil {
					t.Fatal(err)
				}
				restored = true
			}
			for _, sm := range rt.Metrics().Shards {
				evicted += sm.Engine.Evictions
			}
			t.Logf("%d pairs followed another of their trigger (%d after the restore); %d evictions", repeated, afterRestore, evicted)
			if repeated == 0 || afterRestore == 0 || evicted == 0 {
				t.Fatalf("%d pairs followed another of their trigger, %d of them after the restore, %d evictions; want all three", repeated, afterRestore, evicted)
			}
		})
	}
}

// BenchmarkDispatchMerge times the coordinator-visible reply path of one
// dispatch at the ledger's fanout shape — 4 shards, 64 keys, 64-byte
// payloads, 1024 slots under RAND, 256-step batches, ~4000 pairs a dispatch:
// every shard's key pass plus the N-way keyed merge into a reused buffer,
// over one captured set of engine outputs. "fresh" captures the 17th batch,
// "steady" the 321st, with the caches long full.
func BenchmarkDispatchMerge(b *testing.B) {
	const shards, batch = 4, 256
	for _, c := range []struct {
		name string
		warm int
	}{{"fresh", 16}, {"steady", 320}} {
		b.Run(c.name, func(b *testing.B) {
			rng := stats.NewRNG(7)
			se := newShardEngines(b, shards, 1024)
			var outs []engine.Batch
			steps := make([]Step, batch)
			for r := 0; r <= c.warm; r++ {
				for i := range steps {
					steps[i].R = engine.Tuple{Key: rng.IntN(64), Payload: make([]byte, 64)}
					steps[i].S = engine.Tuple{Key: rng.IntN(64), Payload: make([]byte, 64)}
				}
				_, outs = se.step(steps)
			}
			pairs := 0
			for _, out := range outs {
				pairs += len(out.Pairs)
			}
			var out Reply
			runs := make([]run, 0, shards)
			rooms := make([][32]runKey, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				runs = runs[:0]
				for i := range outs {
					runs = append(runs, run{keys: sortKeys(rooms[i][:0], outs[i]), batch: outs[i], shard: i})
				}
				out = mergeRuns(Reply{refs: out.refs[:0], tuples: out.tuples[:0]}, runs)
			}
			if out.Len() != pairs {
				b.Fatalf("merged %d pairs of %d", out.Len(), pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			b.ReportMetric(float64(pairs), "pairs/op")
		})
	}
}

package shardrt

import (
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
)

// Per-shard differential harness: an independent reimplementation of the
// routing/batching layer (refRouter) feeds each shard-local stream to an
// engine.ReferenceJoin configured exactly like that shard's engine, and every
// batch must produce a byte-identical merged pair stream.

// refRouter re-derives, from first principles, the shard-local synchronized
// steps the runtime's batcher produces: sequence tagging before NoValue
// filtering, hash routing, positional min-length lane pairing with carry, and
// NoValue padding on drain. It shares only ShardOf with the runtime.
type refRouter struct {
	shards int
	lanes  [][2][]engine.Tuple
	seq    uint64
}

func newRefRouter(shards int) *refRouter {
	return &refRouter{shards: shards, lanes: make([][2][]engine.Tuple, shards)}
}

// route ingests a batch of global steps and returns each shard's batch of
// synchronized steps (empty slices for idle shards).
func (rr *refRouter) route(steps []Step, drain bool) [][]engine.TuplePair {
	for _, st := range steps {
		rseq, sseq := rr.seq, rr.seq+1
		rr.seq += 2
		if st.R.Key != process.NoValue {
			i := ShardOf(st.R.Key, rr.shards)
			rr.lanes[i][0] = append(rr.lanes[i][0], engine.Tuple{Key: st.R.Key, Payload: st.R.Payload, Seq: rseq})
		}
		if st.S.Key != process.NoValue {
			i := ShardOf(st.S.Key, rr.shards)
			rr.lanes[i][1] = append(rr.lanes[i][1], engine.Tuple{Key: st.S.Key, Payload: st.S.Payload, Seq: sseq})
		}
	}
	out := make([][]engine.TuplePair, rr.shards)
	for i := range rr.lanes {
		lr, ls := rr.lanes[i][0], rr.lanes[i][1]
		k := len(lr)
		if len(ls) < k {
			k = len(ls)
		}
		if drain {
			k = len(lr)
			if len(ls) > k {
				k = len(ls)
			}
		}
		for x := 0; x < k; x++ {
			pad := engine.Tuple{Key: process.NoValue}
			r, s := pad, pad
			if x < len(lr) {
				r = lr[x]
			}
			if x < len(ls) {
				s = ls[x]
			}
			out[i] = append(out[i], engine.TuplePair{R: r, S: s})
		}
		rr.lanes[i][0] = lr[min(k, len(lr)):]
		rr.lanes[i][1] = ls[min(k, len(ls)):]
	}
	return out
}

// convertPair turns one engine pair into the runtime's result type: the tags
// the engine echoed become the global sequence numbers.
func convertPair(p engine.Pair, shard int) Pair {
	return Pair{
		RSeq:     p.R.Seq,
		SSeq:     p.S.Seq,
		R:        Side{Key: p.R.Key, Payload: p.R.Payload},
		S:        Side{Key: p.S.Key, Payload: p.S.Payload},
		SameStep: p.SameTime,
		Shard:    shard,
	}
}

func diffPairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runShardedDifferential drives the runtime and the reference shards over the
// same global stream and requires byte-identical merged pairs per batch,
// identical cache contents per shard, and identical per-shard metrics.
func runShardedDifferential(t *testing.T, cfg Config, steps []Step, batchSize int) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	refs := make([]*engine.ReferenceJoin, cfg.Shards)
	for i, sm := range rt.Metrics().Shards {
		ecfg := engine.Config{
			CacheSize: sm.Budget,
			Window:    cfg.Window,
			Procs:     cfg.Procs,
			Seed:      shardSeed(cfg.Seed, i),
		}
		if cfg.NewPolicy != nil {
			ecfg.Policy = cfg.NewPolicy(i)
		}
		refs[i], err = engine.NewReferenceJoin(ecfg)
		if err != nil {
			t.Fatalf("reference shard %d: %v", i, err)
		}
	}
	rr := newRefRouter(cfg.Shards)

	compareBatch := func(label string, got []Pair, batches [][]engine.TuplePair) {
		var want []Pair
		for i, batch := range batches {
			for _, tp := range batch {
				for _, p := range refs[i].Step(tp.R, tp.S) {
					want = append(want, convertPair(p, i))
				}
			}
		}
		sortPairs(want)
		if !diffPairsEqual(got, want) {
			t.Fatalf("%s: pairs diverge:\n  runtime   %v\n  reference %v", label, got, want)
		}
		// Snapshot equality implies identical admission and eviction choices.
		for i := range refs {
			so, sr := rt.Shard(i).Snapshot(), refs[i].Snapshot()
			if len(so) != len(sr) {
				t.Fatalf("%s: shard %d cache sizes diverge: %d vs %d", label, i, len(so), len(sr))
			}
			for x := range so {
				if so[x] != sr[x] {
					t.Fatalf("%s: shard %d cache slot %d diverges: %+v vs %+v", label, i, x, so[x], sr[x])
				}
			}
		}
	}

	for lo := 0; lo < len(steps); lo += batchSize {
		hi := lo + batchSize
		if hi > len(steps) {
			hi = len(steps)
		}
		got, err := rt.IngestBatch(steps[lo:hi])
		if err != nil {
			t.Fatalf("IngestBatch[%d:%d): %v", lo, hi, err)
		}
		compareBatch("batch", got, rr.route(steps[lo:hi], false))
	}
	got, err := rt.Flush()
	if err != nil {
		t.Fatal(err)
	}
	compareBatch("flush", got, rr.route(nil, true))

	for i, sm := range rt.Metrics().Shards {
		if rm := refs[i].Metrics(); sm.Engine != rm {
			t.Fatalf("shard %d metrics diverge:\n  runtime   %+v\n  reference %+v", i, sm.Engine, rm)
		}
	}
}

// TestShardedDifferential is the tentpole correctness gate: each shard engine
// held byte-identical to a ReferenceJoin fed the independently re-derived
// shard-local stream, across shard counts and window semantics.
func TestShardedDifferential(t *testing.T) {
	steps := genSteps(11, 2000)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"equi-2", Config{Shards: 2, TotalCache: 24, Procs: trendProcs(), Seed: 3}},
		{"equi-4", Config{Shards: 4, TotalCache: 32, Procs: trendProcs(), Seed: 3}},
		{"window-4", Config{Shards: 4, TotalCache: 32, Window: 40, Procs: trendProcs(), Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runShardedDifferential(t, tc.cfg, steps, 53)
		})
	}
}

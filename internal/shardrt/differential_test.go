package shardrt

import (
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
)

// Per-shard differential harness: an independent reimplementation of the
// routing layer (refRouter) feeds each shard's stamped arrivals to an
// engine.ReferenceJoin configured exactly like that shard's engine, and every
// batch must produce a byte-identical merged pair stream.

// refRouter re-derives, from first principles, the shard-local steps the
// runtime routes: sequence tagging before NoValue filtering, hash routing, the
// two arrivals of a global step in one step when their keys share a shard and
// in a one-sided step each otherwise, every step stamped with the global steps
// its shard skipped. It shares only ShardOf with the runtime.
type refRouter struct {
	shards int
	clocks []int // per shard, the global step after its last step
	next   int   // the next global step
}

func newRefRouter(shards int) *refRouter {
	return &refRouter{shards: shards, clocks: make([]int, shards)}
}

// route ingests a batch of global steps and returns each shard's batch of
// steps (empty slices for idle shards).
func (rr *refRouter) route(steps []Step) [][]engine.TuplePair {
	out := make([][]engine.TuplePair, rr.shards)
	for _, st := range steps {
		g := rr.next
		rr.next++
		r := engine.Tuple{Key: st.R.Key, Payload: st.R.Payload, Seq: uint64(2 * g)}
		s := engine.Tuple{Key: st.S.Key, Payload: st.S.Payload, Seq: uint64(2*g + 1)}
		at := func(shard int, tp engine.TuplePair) {
			tp.Skip = g - rr.clocks[shard]
			rr.clocks[shard] = g + 1
			out[shard] = append(out[shard], tp)
		}
		rs, ss := -1, -2
		if r.Key != process.NoValue {
			rs = ShardOf(r.Key, rr.shards)
		}
		if s.Key != process.NoValue {
			ss = ShardOf(s.Key, rr.shards)
		}
		if rs == ss {
			at(rs, engine.TuplePair{R: r, S: s})
			continue
		}
		if rs >= 0 {
			at(rs, engine.TuplePair{R: r, S: engine.Tuple{Key: s.Key}, Arrivals: engine.OnlyR})
		}
		if ss >= 0 {
			at(ss, engine.TuplePair{R: engine.Tuple{Key: r.Key}, S: s, Arrivals: engine.OnlyS})
		}
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
				for _, p := range refs[i].StepTuplePair(tp) {
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
		compareBatch("batch", got, rr.route(steps[lo:hi]))
	}
	// Nothing waits for a later dispatch.
	if got, err := rt.Flush(); err != nil || len(got) != 0 {
		t.Fatalf("Flush: %d pairs, %v; want none", len(got), err)
	}

	for i, sm := range rt.Metrics().Shards {
		if rm := refs[i].Metrics(); sm.Engine != rm {
			t.Fatalf("shard %d metrics diverge:\n  runtime   %+v\n  reference %+v", i, sm.Engine, rm)
		}
	}
}

// TestShardedDifferential is the tentpole correctness gate: each shard engine
// held byte-identical to a ReferenceJoin fed the independently re-derived
// stamped arrivals, across shard counts, window semantics and policies. The
// trend models put the two arrivals of a step on different shards almost
// always (one-sided steps); the small key domains with NoValue arrivals of
// "dense" put them on one shard often (two-sided steps) and skip steps.
func TestShardedDifferential(t *testing.T) {
	steps := genSteps(11, 2000)
	dense := skewedSteps(4, 2000)
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps []Step
	}{
		{"equi-2", Config{Shards: 2, TotalCache: 24, Procs: trendProcs(), Seed: 3}, steps},
		{"equi-4", Config{Shards: 4, TotalCache: 32, Procs: trendProcs(), Seed: 3}, steps},
		{"window-4", Config{Shards: 4, TotalCache: 32, Window: 40, Procs: trendProcs(), Seed: 7}, steps},
		{"dense-rand-4", Config{Shards: 4, TotalCache: 24, Seed: 5}, dense},
		{"dense-prob-window-3", Config{Shards: 3, TotalCache: 18, Window: 9, Seed: 6, NewPolicy: func(int) join.Policy { return &policy.Prob{} }}, dense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runShardedDifferential(t, tc.cfg, tc.steps, 53)
		})
	}
}

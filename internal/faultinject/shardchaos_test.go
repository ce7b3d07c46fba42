package faultinject

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
)

// Multi-shard chaos campaign: a seeded, skewed workload faulted at ingress
// drives a sharded runtime in which one shard's ladder is forced to degrade
// (its FlowExpect rung is starved of solver budget, so every decision falls
// through — the deterministic stand-in for the solver hook, which is
// process-global and unusable under concurrent shard workers). The campaign
// asserts the sharded fault-tolerance contract: no panics, runtime invariants
// after every batch, out-of-domain keys rejected atomically, a diagnostics
// bundle per downgraded step on the degraded shard, and a byte-identical
// differential replay.

const (
	shardChaosShards = 4
	shardChaosSteps  = 400
	shardChaosBatch  = 16
)

// shardChaosKeys builds the skewed key stream: most keys route to the hot
// shard (shard 0), the rest spread over a wider domain.
func shardChaosKeys(seed uint64, n int) [][2]int {
	var hot []int
	for k := 0; len(hot) < 6; k++ {
		if shardrt.ShardOf(k, shardChaosShards) == 0 {
			hot = append(hot, k)
		}
	}
	rng := stats.NewRNG(seed)
	keys := make([][2]int, n)
	for i := range keys {
		for side := 0; side < 2; side++ {
			if rng.Float64() < 0.7 {
				keys[i][side] = hot[rng.IntN(len(hot))]
			} else {
				keys[i][side] = rng.IntN(200)
			}
		}
	}
	return keys
}

type shardChaosResult struct {
	pairs     []shardrt.Pair
	metrics   shardrt.Metrics
	counts    Counts
	rejected  int
	fallbacks [][]uint64
}

func runShardChaos(t *testing.T, seed uint64, flightDir string) shardChaosResult {
	t.Helper()
	heeb := policy.HEEBOptions{LifetimeEstimate: 4}
	rt, err := shardrt.New(shardrt.Config{
		Shards:     shardChaosShards,
		TotalCache: 32,
		Procs:      chaosProcs(),
		Seed:       seed,
		NewPolicy: func(shard int) join.Policy {
			budget := int64(50_000)
			if shard == 0 {
				budget = 1 // starve the solver: every decision downgrades
			}
			return policy.NewDefaultLadder(3, budget, heeb)
		},
		Telemetry: true,
		FlightDir: flightDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := shardChaosKeys(seed+100, shardChaosSteps)
	inj := New(Plan{Seed: seed + 200, DupProb: 0.03, DropProb: 0.03, DelayProb: 0.03, CorruptProb: 0.02})
	valid := func(k int) bool {
		return k == process.NoValue || (k >= engine.MinKey && k <= engine.MaxKey)
	}

	res := shardChaosResult{}
	ingest := func(batch []shardrt.Step) {
		if len(batch) == 0 {
			return
		}
		pairs, err := rt.IngestBatch(batch)
		if err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
		res.pairs = append(res.pairs, pairs...)
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("invariants after batch: %v", err)
		}
	}
	var batch []shardrt.Step
	for i := 0; i < shardChaosSteps; i++ {
		rk, sk := inj.Next(keys[i][0], keys[i][1])
		st := shardrt.Step{R: engine.Tuple{Key: rk}, S: engine.Tuple{Key: sk}}
		if !valid(rk) || !valid(sk) {
			// A corrupted out-of-domain key must reject its batch atomically;
			// feed it alone so only the bad step is lost, like the single
			// operator's StepChecked rejection.
			ingest(batch)
			batch = batch[:0]
			before := rt.Metrics().Ingested
			if _, err := rt.IngestBatch([]shardrt.Step{st}); !errors.Is(err, shardrt.ErrBadStep) {
				t.Fatalf("step %d: corrupted key accepted (err %v)", i, err)
			}
			if after := rt.Metrics().Ingested; after != before {
				t.Fatalf("step %d: rejected batch mutated ingress state (%d -> %d)", i, before, after)
			}
			res.rejected++
			continue
		}
		batch = append(batch, st)
		if len(batch) == shardChaosBatch {
			ingest(batch)
			batch = batch[:0]
		}
	}
	ingest(batch)
	tail, err := rt.Flush()
	if err != nil {
		t.Fatal(err)
	}
	res.pairs = append(res.pairs, tail...)
	if err := rt.CheckInvariants(); err != nil {
		t.Fatalf("invariants after flush: %v", err)
	}
	res.metrics = rt.Metrics()
	res.counts = inj.Counts()
	for i := 0; i < shardChaosShards; i++ {
		_, fb, ok := rt.Shard(i).FallbackCounts()
		if !ok {
			t.Fatalf("shard %d ladder did not report fallback counts", i)
		}
		res.fallbacks = append(res.fallbacks, fb)
	}
	return res
}

func TestShardedChaosCampaign(t *testing.T) {
	dir := t.TempDir()
	res := runShardChaos(t, 31, dir)

	if res.counts.CorruptOutOfDomain != res.rejected {
		t.Fatalf("injected %d out-of-domain keys but rejected %d batches", res.counts.CorruptOutOfDomain, res.rejected)
	}
	if res.counts.Drops == 0 || res.counts.Dups == 0 || res.counts.Delays == 0 {
		t.Fatalf("campaign too tame: %+v", res.counts)
	}
	if len(res.pairs) == 0 {
		t.Fatal("campaign produced no pairs at all")
	}

	// The starved shard degraded; sum of its per-rung fallbacks is the number
	// of decisions that fell past rung 0.
	var hotFallbacks uint64
	for _, c := range res.fallbacks[0] {
		hotFallbacks += c
	}
	if hotFallbacks == 0 {
		t.Fatal("starved shard 0 never fell down its ladder")
	}

	// Bundle-per-downgrade: the degraded shard dumped diagnostics bundles
	// into its own FlightDir subdirectory, one per downgraded step, each
	// loadable and carrying a restorable checkpoint.
	bundles, err := filepath.Glob(filepath.Join(dir, "shard-0", "bundle-*"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("degraded shard wrote no bundles (err %v)", err)
	}
	if uint64(len(bundles)) > hotFallbacks {
		t.Fatalf("%d bundles but only %d downgrade decisions", len(bundles), hotFallbacks)
	}
	for _, dir := range bundles[:min(3, len(bundles))] {
		b, err := flightrec.LoadBundle(dir)
		if err != nil {
			t.Fatalf("LoadBundle(%s): %v", dir, err)
		}
		if b.Manifest.Reason != "downgrade" {
			t.Fatalf("bundle %s reason %q, want downgrade", dir, b.Manifest.Reason)
		}
		if !strings.Contains(filepath.Base(dir), "downgrade") {
			t.Fatalf("bundle dir %s not named for its reason", dir)
		}
		if len(b.Checkpoint) == 0 {
			t.Fatalf("bundle %s has no checkpoint", dir)
		}
	}
	// Healthy shards wrote no bundles: their generous solver budgets never
	// downgraded on this campaign.
	for i := 1; i < shardChaosShards; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if entries, err := os.ReadDir(sub); err == nil && len(entries) > 0 {
			var fb uint64
			for _, c := range res.fallbacks[i] {
				fb += c
			}
			if fb == 0 {
				t.Fatalf("shard %d wrote %d bundles without any downgrade", i, len(entries))
			}
		}
	}
}

// TestShardedChaosReplay: the whole faulted, degraded campaign
// is deterministic — two runs from the same seed are byte-identical in
// pairs, metrics, fault counts and per-shard downgrade counts.
func TestShardedChaosReplay(t *testing.T) {
	a := runShardChaos(t, 77, t.TempDir())
	b := runShardChaos(t, 77, t.TempDir())
	if len(a.pairs) != len(b.pairs) {
		t.Fatalf("replay diverged: %d vs %d pairs", len(a.pairs), len(b.pairs))
	}
	for i := range a.pairs {
		if a.pairs[i] != b.pairs[i] {
			t.Fatalf("replay diverged at pair %d: %+v vs %+v", i, a.pairs[i], b.pairs[i])
		}
	}
	if a.rejected != b.rejected || a.counts != b.counts {
		t.Fatalf("replay fault profile diverged: %+v/%d vs %+v/%d", a.counts, a.rejected, b.counts, b.rejected)
	}
	if a.metrics.Ingested != b.metrics.Ingested || a.metrics.Pairs != b.metrics.Pairs ||
		a.metrics.Batches != b.metrics.Batches {
		t.Fatalf("replay metrics diverged: %+v vs %+v", a.metrics, b.metrics)
	}
	for i := range a.metrics.Shards {
		if a.metrics.Shards[i] != b.metrics.Shards[i] {
			t.Fatalf("shard %d metrics diverged: %+v vs %+v", i, a.metrics.Shards[i], b.metrics.Shards[i])
		}
	}
	for i := range a.fallbacks {
		for r := range a.fallbacks[i] {
			if a.fallbacks[i][r] != b.fallbacks[i][r] {
				t.Fatalf("shard %d rung %d fallbacks diverged: %d vs %d", i, r, a.fallbacks[i][r], b.fallbacks[i][r])
			}
		}
	}
}

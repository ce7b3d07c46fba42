package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
)

// Multi-shard chaos campaign: a seeded, skewed workload faulted at ingress
// drives a sharded runtime of HEEB shards. The campaign asserts the sharded
// fault-tolerance contract: no panics, runtime invariants after every batch,
// out-of-domain keys rejected atomically, no fault bundle from any shard,
// per-shard bundle directories for the bundles a shard is asked for, and a
// byte-identical differential replay.

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
	pairs    []shardrt.Pair
	metrics  shardrt.Metrics
	counts   Counts
	rejected int
	// bundles are the signal bundles dumped from each shard after the
	// campaign, indexed by shard.
	bundles []string
}

func runShardChaos(t *testing.T, seed uint64, flightDir string) shardChaosResult {
	t.Helper()
	rt, err := shardrt.New(shardrt.Config{
		Shards:     shardChaosShards,
		TotalCache: 32,
		Procs:      chaosProcs(),
		Seed:       seed,
		NewPolicy:  func(int) join.Policy { return chaosPolicy() },
		Telemetry:  true,
		FlightDir:  flightDir,
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

	// No shard met a fault worth a bundle: faulted keys are rejected at
	// ingress, and the rest is input the operator must take in its stride.
	if entries, err := os.ReadDir(flightDir); err == nil && len(entries) > 0 {
		t.Fatalf("the campaign dumped bundles: %v", entries)
	}
	// The runtime is quiescent after Flush, so each shard's engine can dump
	// a bundle of its own; it lands in that shard's FlightDir subdirectory.
	for i := 0; i < shardChaosShards; i++ {
		bdir, err := rt.Shard(i).DumpBundle("signal")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		res.bundles = append(res.bundles, bdir)
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

	// One signal bundle per shard, each under FlightDir/shard-<i>, named for
	// its reason, loadable, and carrying a checkpoint of the shard's state.
	for i, bdir := range res.bundles {
		if want := filepath.Join(dir, fmt.Sprintf("shard-%d", i)); filepath.Dir(bdir) != want {
			t.Fatalf("shard %d bundle %s is not under %s", i, bdir, want)
		}
		if !strings.HasSuffix(filepath.Base(bdir), "-signal") {
			t.Fatalf("bundle dir %s not named for its reason", bdir)
		}
		b, err := flightrec.LoadBundle(bdir)
		if err != nil {
			t.Fatalf("LoadBundle(%s): %v", bdir, err)
		}
		if b.Manifest.Reason != "signal" || len(b.Checkpoint) == 0 {
			t.Fatalf("shard %d bundle manifest %+v, %d checkpoint bytes", i, b.Manifest, len(b.Checkpoint))
		}
	}
}

// TestShardedChaosReplay: the whole faulted campaign is deterministic — two
// runs from the same seed are byte-identical in pairs, metrics, fault counts
// and the checkpoints of the bundles each shard dumps at the end.
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
	for i := range a.bundles {
		ba, err := flightrec.LoadBundle(a.bundles[i])
		if err != nil {
			t.Fatal(err)
		}
		bb, err := flightrec.LoadBundle(b.bundles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Checkpoint, bb.Checkpoint) {
			t.Fatalf("shard %d end-of-campaign checkpoints diverged", i)
		}
	}
}

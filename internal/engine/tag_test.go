package engine

import (
	"testing"

	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// The caller tag (Tuple.Seq) and the allocation-free step. The differential,
// batch and checkpoint harnesses tag every arrival, so the echo is held to the
// oracle everywhere; what is pinned here is what those cannot see — that a
// step allocates nothing it does not have to.

// TestStepBatchAllocsPerStep pins the step's allocation count at the uptime
// shape: payload-free RAND, a full 256-slot cache over 1024 keys, 256-step
// batches. A warmed step allocates nothing: a posting is a link in a per-slot
// column and a key a cell of a table sized at construction.
func TestStepBatchAllocsPerStep(t *testing.T) {
	const cache, keys, batchLen = 256, 1024, 256
	j, err := NewJoin(Config{CacheSize: cache, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	seq := uint64(0)
	batch := make([]TuplePair, batchLen)
	fill := func() {
		for i := range batch {
			batch[i] = TuplePair{R: Tuple{Key: rng.IntN(keys), Seq: seq}, S: Tuple{Key: rng.IntN(keys), Seq: seq + 1}}
			seq += 2
		}
	}
	for warm := 0; warm < 16; warm++ { // fills the cache, settles the output buffers
		fill()
		j.StepBatch(batch)
	}
	perBatch := testing.AllocsPerRun(50, func() {
		fill()
		j.StepBatch(batch)
	})
	perStep := perBatch / batchLen
	t.Logf("StepBatch: %.3f objects a step", perStep)
	if perStep > 0.05 {
		t.Fatalf("StepBatch allocates %.2f objects a step on a warmed payload-free RAND cache, want <= 0.05", perStep)
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHEEBStepBatchAllocsPerStep pins the same count at the `trend` shape:
// the ledger's trend models, 64 slots, the default policy, 8-step batches.
// The decision allocates nothing (policy.TestHEEBDecisionAllocs) and neither
// does the index, so what is left is the two histories' growth, ~0.01.
func TestHEEBStepBatchAllocsPerStep(t *testing.T) {
	const cache, batchLen, warm, runs = 64, 8, 512, 256
	procs := workload.TrendSpec{Lag: 1, RBound: 40, SBound: 60, RSigma: 13.2, SSigma: 20}.Join().Procs
	j, err := NewJoin(Config{CacheSize: cache, Procs: procs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	n := (warm + runs + 2) * batchLen
	r, s := procs[0].Generate(rng.Split(), n), procs[1].Generate(rng.Split(), n)
	at := 0
	batch := make([]TuplePair, batchLen)
	step := func() {
		for i := range batch {
			batch[i] = TuplePair{R: Tuple{Key: r[at], Seq: uint64(2 * at)}, S: Tuple{Key: s[at], Seq: uint64(2*at + 1)}}
			at++
		}
		j.StepBatch(batch)
	}
	for i := 0; i < warm; i++ { // fills the cache, the forecast windows and the score tables
		step()
	}
	perStep := testing.AllocsPerRun(runs, step) / batchLen
	t.Logf("StepBatch: %.3f objects a step", perStep)
	if perStep > 0.05 {
		t.Fatalf("StepBatch allocates %.2f objects a step under HEEB on the trend models, want <= 0.05", perStep)
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

package engine

import (
	"bytes"
	"encoding/gob"
	"testing"

	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// The caller tag (Tuple.Seq) and the allocation-free step. The differential,
// batch and checkpoint harnesses tag every arrival, so the echo is held to the
// oracle everywhere; what is pinned here is what those cannot see — that a
// step allocates nothing it does not have to, and that a checkpoint whose
// payloads still wrap their tag restores into the new layout.

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

// boxedTag is a payload that carries its tuple's tag itself, the way the
// sharded runtime's Tagged wrapper did before Tuple.Seq existed.
type boxedTag struct {
	Seq     uint64
	Payload interface{}
}

func (b boxedTag) Untag() (uint64, interface{}) { return b.Seq, b.Payload }

// TestRestoreUnwrapsTagCarryingPayloads: a checkpoint taken while tags
// travelled inside the payloads restores with every tag in the tuple and the
// inner payload in its place — pairs, and the next checkpoint, equal those of
// an operator that was handed plain tagged tuples all along.
func TestRestoreUnwrapsTagCarryingPayloads(t *testing.T) {
	gob.Register(boxedTag{})
	const n, cut = 400, 150
	rng := stats.NewRNG(31)
	plain := make([]TuplePair, n)
	for i := range plain {
		plain[i] = TuplePair{
			R: Tuple{Key: rng.IntN(12), Payload: i, Seq: uint64(2 * i)},
			S: Tuple{Key: rng.IntN(12), Payload: -i - 1, Seq: uint64(2*i + 1)},
		}
	}
	box := func(tu Tuple) Tuple {
		return Tuple{Key: tu.Key, Payload: boxedTag{Seq: tu.Seq, Payload: tu.Payload}}
	}
	mk := func() *Join {
		j, err := NewJoin(Config{CacheSize: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	whole, old, resumed := mk(), mk(), mk()
	for _, st := range plain[:cut] {
		whole.Step(st.R, st.S)
		old.Step(box(st.R), box(st.S))
	}
	var ckpt bytes.Buffer
	if err := old.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	for i, st := range plain[cut:] {
		pw, pr := whole.Step(st.R, st.S), resumed.Step(st.R, st.S)
		if !pairsEqual(pw, pr) {
			t.Fatalf("step %d pairs diverge:\n  plain    %v\n  restored %v", cut+i, pw, pr)
		}
	}
	var cw, cr bytes.Buffer
	if err := whole.Checkpoint(&cw); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Checkpoint(&cr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw.Bytes(), cr.Bytes()) {
		t.Fatal("final checkpoints differ: a restored entry still carries its wrapper")
	}
}

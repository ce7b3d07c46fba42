package shardrt

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// The upgrade fixture's run: 4 shards under RAND (no models), 64 slots,
// 4 000 steps in batches of 50, []byte payloads naming their arrival. R draws
// from half of S's key range and a fifth of S's arrivals are NoValue.
const (
	upgradeSteps = 4000
	upgradeBatch = 50
	upgradeCut   = 2000 // the fixture was written after this many steps
)

// upgradePairsSHA256 is the SHA-256 of renderPairs over the whole run's
// merged output (the closing Flush included). The ledger only compares daemon
// and replay of one commit; this pins the pair listing across commits. It was
// first computed at commit 0387968 — the parent of the change that moved the
// sequence tag out of the payload — and re-based twice. At d26fcf0 the
// engine's cache became a table of slots: RAND draws the same positions as
// before, over slots that no longer list the cache in ID order, so they name
// other tuples (docs/fault-tolerance.md, on RAND checkpoints across it);
// ab60579f… was the hash until then. Then a shard came to step on the
// stream's clock: each arrival is stepped at its own global step, one-sided
// when the other stream's key went to another shard, where the lanes had
// paired a shard's R and S arrivals by position — other steps, other
// decisions, other pairs, and SameStep only for one global step's two
// arrivals (docs/fault-tolerance.md, "Manifest version 4"); 38dc1784… was
// the hash from d26fcf0 until then. The run is valid on every side of both
// changes and byte-comparable across neither.
const upgradePairsSHA256 = "a9876f29f76a44ecfad4b03c00a577cea72a63cdbd947066df4844785496c77d"

// shardedFixture is a version-4 manifest — the format before this commit's —
// written by commit 22e9c79 after step upgradeCut of the run above; its shard
// envelopes are the engine's previous format. Its bytes are pinned, so that a
// fixture regenerated at a later commit fails the tests that read it instead
// of testing the current format twice.
const (
	shardedFixture       = "testdata/upgrade/sharded_pr57.ckpt"
	shardedFixtureSHA256 = "1ff1f37ab02a3b770aa1bbe35c53267a0a2f1e5fd823ae6d683e70294ee67815"
)

// readFixture reads shardedFixture, requires its pinned bytes and the
// version-4 format — a manifest with an envelope per shard, each signed with a
// forecast digest and carrying history counts as long as its clock — and
// returns the file and its decoded manifest.
func readFixture(t *testing.T) ([]byte, manifestWire) {
	t.Helper()
	raw, err := os.ReadFile(shardedFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != shardedFixtureSHA256 {
		t.Fatalf("%s hashes to %s, pinned at %s", shardedFixture, got, shardedFixtureSHA256)
	}
	var m manifestWire
	decode(t, raw, &m)
	if m.Version != 4 || len(m.Envelopes) != m.Shards {
		t.Fatalf("%s is manifest version %d with %d envelopes for %d shards, want version 4 with one a shard", shardedFixture, m.Version, len(m.Envelopes), m.Shards)
	}
	for i, env := range m.Envelopes {
		var w struct {
			ProcSig string
			Time    int
			HistLen [2]int
		}
		decode(t, env, &w)
		if w.Time == 0 || !strings.Contains(w.ProcSig, "#") || w.HistLen != [2]int{w.Time, w.Time} {
			t.Fatalf("%s shard %d: time %d, signature %q, counts %v: not the engine's previous format", shardedFixture, i, w.Time, w.ProcSig, w.HistLen)
		}
	}
	return raw, m
}

// decode reads a checkpoint envelope's gob payload into v.
func decode(t testing.TB, file []byte, v any) {
	t.Helper()
	payload, err := checkpoint.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func upgradeConfig() Config { return Config{Shards: 4, TotalCache: 64, Seed: 1917} }

func upgradeInput() []Step {
	rng := stats.NewRNG(1917)
	steps := make([]Step, upgradeSteps)
	for i := range steps {
		steps[i] = Step{
			R: engine.Tuple{Key: rng.IntN(24), Payload: []byte(fmt.Sprintf("r%04d", i))},
			S: engine.Tuple{Key: rng.IntN(48), Payload: []byte(fmt.Sprintf("s%04d", i))},
		}
		if rng.IntN(5) == 0 {
			steps[i].S.Key = process.NoValue
		}
	}
	return steps
}

// renderPairs writes one line per pair with every field a consumer can see;
// []byte payloads inside an interface are not comparable with ==.
func renderPairs(pairs []Pair) []byte {
	var b bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&b, "%d %d %d %d %q %q %v %d\n", p.RSeq, p.SSeq, p.R.Key, p.S.Key, p.R.Payload, p.S.Payload, p.SameStep, p.Shard)
	}
	return b.Bytes()
}

// upgradeIngest ingests steps in the fixture's batches and returns the
// rendered pairs.
func upgradeIngest(t testing.TB, rt *Runtime, steps []Step) (pairs []byte) {
	t.Helper()
	for lo := 0; lo < len(steps); lo += upgradeBatch {
		out, err := rt.IngestBatch(steps[lo : lo+upgradeBatch])
		if err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
		pairs = append(pairs, renderPairs(out)...)
	}
	return pairs
}

// upgradeRun ingests steps[from:] in the fixture's batches, flushes, and
// returns the rendered pairs, the final metrics and a final checkpoint.
func upgradeRun(t *testing.T, rt *Runtime, steps []Step, from int) (pairs []byte, m Metrics, ckpt []byte) {
	t.Helper()
	pairs = upgradeIngest(t, rt, steps[from:])
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	out, err := rt.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	pairs = append(pairs, renderPairs(out)...)
	return pairs, rt.Metrics(), buf.Bytes()
}

// shardedFixture restores here, and the run continues as one that was never
// interrupted: the same checkpoint at the cut, the same pairs, the same final
// metrics and the same final checkpoint.
func TestRestoreParentCommitShardedCheckpoint(t *testing.T) {
	old, _ := readFixture(t)
	steps := upgradeInput()
	start := func() *Runtime {
		rt, err := New(upgradeConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Shutdown)
		return rt
	}

	whole := start()
	head := upgradeIngest(t, whole, steps[:upgradeCut])
	var mid bytes.Buffer
	if err := whole.Checkpoint(&mid); err != nil {
		t.Fatal(err)
	}
	wantPairs, wantMetrics, wantCkpt := upgradeRun(t, whole, steps, upgradeCut)
	if got := fmt.Sprintf("%x", sha256.Sum256(append(head, wantPairs...))); got != upgradePairsSHA256 {
		t.Fatalf("pair listing of the uninterrupted run hashes to %s, pinned at %s", got, upgradePairsSHA256)
	}

	resumed := start()
	if err := resumed.Restore(bytes.NewReader(old)); err != nil {
		t.Fatalf("restoring the version-4 fixture: %v", err)
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	if err := resumed.Checkpoint(&cut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cut.Bytes(), mid.Bytes()) {
		t.Fatal("the restored runtime's checkpoint differs from the uninterrupted run's at the cut")
	}
	gotPairs, gotMetrics, gotCkpt := upgradeRun(t, resumed, steps, upgradeCut)
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Fatalf("pairs diverge after restoring the fixture:\n  uninterrupted %d bytes\n  restored      %d bytes", len(wantPairs), len(gotPairs))
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Fatalf("metrics diverge:\n  uninterrupted %+v\n  restored      %+v", wantMetrics, gotMetrics)
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatal("final checkpoints differ between the uninterrupted and the restored run")
	}
}

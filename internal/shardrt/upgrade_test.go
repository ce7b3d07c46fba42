package shardrt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// The upgrade fixture's run: 4 shards under RAND (no models), 64 slots,
// 4 000 steps in batches of 50, []byte payloads naming their arrival. R draws
// from half of S's key range and a fifth of S's arrivals are NoValue, so the
// R lanes run ahead and every checkpoint carries lane tails.
const (
	upgradeSteps = 4000
	upgradeBatch = 50
	upgradeCut   = 2000 // the fixture was written after this many steps
)

// upgradePairsSHA256 is the SHA-256 of renderPairs over the whole run's
// merged output (the closing Flush included), computed at commit 0387968 —
// the parent of the PR that moved the sequence tag out of the payload. The
// ledger only compares daemon and replay of one commit; this pins the pair
// listing across the two.
const upgradePairsSHA256 = "ab60579fd3cf8179b48fd803ac82a6054ca9dd7da96da5bc8de81826c301df32"

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

// upgradeRun ingests steps[from:] in the fixture's batches, flushes, and
// returns the rendered pairs, the final metrics and a final checkpoint.
func upgradeRun(t *testing.T, rt *Runtime, steps []Step, from int) (pairs []byte, m Metrics, ckpt []byte) {
	t.Helper()
	for lo := from; lo < len(steps); lo += upgradeBatch {
		out, err := rt.IngestBatch(steps[lo : lo+upgradeBatch])
		if err != nil {
			t.Fatalf("IngestBatch at %d: %v", lo, err)
		}
		pairs = append(pairs, renderPairs(out)...)
	}
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

// testdata/upgrade/sharded_pr17.ckpt is a sharded checkpoint written by
// commit 0387968 after step 2000 of the run above, when every arrival's
// sequence number still travelled as a Tagged wrapper around its payload:
// 64 cached Tagged payloads in the shard envelopes and four carried R-lane
// tails of Tagged tuples in the manifest. It restores here — each Tagged
// unwrapped once into the tuple's tag — and the run continues as one that was
// never interrupted: same pairs, same final metrics, same final checkpoint.
func TestRestoreParentCommitShardedCheckpoint(t *testing.T) {
	old, err := os.ReadFile("testdata/upgrade/sharded_pr17.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	steps := upgradeInput()

	whole, err := New(upgradeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Shutdown()
	var head []byte
	for lo := 0; lo < upgradeCut; lo += upgradeBatch {
		out, err := whole.IngestBatch(steps[lo : lo+upgradeBatch])
		if err != nil {
			t.Fatal(err)
		}
		head = append(head, renderPairs(out)...)
	}
	wantPairs, wantMetrics, wantCkpt := upgradeRun(t, whole, steps, upgradeCut)
	if got := fmt.Sprintf("%x", sha256.Sum256(append(head, wantPairs...))); got != upgradePairsSHA256 {
		t.Fatalf("pair listing of the uninterrupted run hashes to %s, the parent commit's to %s", got, upgradePairsSHA256)
	}

	resumed, err := New(upgradeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Shutdown()
	if err := resumed.Restore(bytes.NewReader(old)); err != nil {
		t.Fatalf("restoring the parent commit's checkpoint: %v", err)
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tails := 0
	for i := range resumed.lanes {
		for side, lane := range resumed.lanes[i] {
			if len(lane) > 0 {
				tails++
			}
			for _, tu := range lane {
				// Arrival n of stream R/S has sequence 2n / 2n+1 and payload rn / sn.
				want := fmt.Sprintf("%c%04d", "rs"[side], tu.Seq/2)
				if b, _ := tu.Payload.([]byte); string(b) != want || int(tu.Seq%2) != side {
					t.Fatalf("shard %d lane %d holds %+v after restore, want payload %q under its own tag", i, side, tu, want)
				}
			}
		}
	}
	if tails < 2 {
		t.Fatalf("fixture carries %d lane tails, want >= 2", tails)
	}
	gotPairs, gotMetrics, gotCkpt := upgradeRun(t, resumed, steps, upgradeCut)
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Fatalf("pairs diverge after restoring the parent commit's checkpoint:\n  uninterrupted %d bytes\n  restored      %d bytes", len(wantPairs), len(gotPairs))
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Fatalf("metrics diverge:\n  uninterrupted %+v\n  restored      %+v", wantMetrics, gotMetrics)
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatal("final checkpoints differ between the uninterrupted and the restored run")
	}
}

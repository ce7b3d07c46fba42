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
// merged output (the closing Flush included). The ledger only compares daemon
// and replay of one commit; this pins the pair listing across commits. It was
// first computed at commit 0387968 — the parent of the PR that moved the
// sequence tag out of the payload — and is re-based at PR 27, which made the
// engine's cache a table of slots: RAND draws the same positions as before,
// over slots that no longer list the cache in ID order, so they name other
// tuples. The run is valid and not byte-comparable across that commit
// (docs/fault-tolerance.md, "RAND checkpoints across PR 27"); ab60579f… was
// the listing's hash from 0387968 until then.
const upgradePairsSHA256 = "38dc1784218e13951701130d180d0b0a3de08131d516a19480ce8b51930bbb87"

// upgradeResumedSHA256 is the same hash over what the run emits after step
// 2000 when it is resumed from the fixture: the old file lists each shard's
// cache in ID order, which restores as that layout — one the uninterrupted
// run of this commit does not have at step 2000 — so the continuation is
// neither the old binary's nor the uninterrupted run's, and has its own pin.
const upgradeResumedSHA256 = "023eb8708888765b143b5db12965b504e0777efe12e5c371dfac98c0763cd868"

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
func upgradeIngest(t *testing.T, rt *Runtime, steps []Step) (pairs []byte) {
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

// testdata/upgrade/sharded_pr17.ckpt is a sharded checkpoint written by
// commit 0387968 after step 2000 of the run above, when every arrival's
// sequence number still travelled as a Tagged wrapper around its payload:
// 64 cached Tagged payloads in the shard envelopes and four carried R-lane
// tails of Tagged tuples in the manifest. It restores here — each Tagged
// unwrapped once into the tuple's tag, each cache as the ID-ordered layout the
// file lists — and the run continues from it: a valid run (every pair joins
// equal keys, none is emitted twice, as many steps are counted) whose listing
// is pinned. That it is the run that was never interrupted — same pairs, same
// final metrics, same final checkpoint — holds of a checkpoint this commit
// writes at the same cut, and no longer of the fixture: RAND reads positions,
// and an old file cannot know the layout (see upgradePairsSHA256).
func TestRestoreParentCommitShardedCheckpoint(t *testing.T) {
	old, err := os.ReadFile("testdata/upgrade/sharded_pr17.ckpt")
	if err != nil {
		t.Fatal(err)
	}
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

	// From this commit's own checkpoint at the cut: the run never interrupted.
	own := start()
	if err := own.Restore(&mid); err != nil {
		t.Fatalf("restoring this commit's checkpoint: %v", err)
	}
	gotPairs, gotMetrics, gotCkpt := upgradeRun(t, own, steps, upgradeCut)
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Fatalf("pairs diverge after restoring this commit's checkpoint:\n  uninterrupted %d bytes\n  restored      %d bytes", len(wantPairs), len(gotPairs))
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Fatalf("metrics diverge:\n  uninterrupted %+v\n  restored      %+v", wantMetrics, gotMetrics)
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatal("final checkpoints differ between the uninterrupted and the restored run")
	}

	// From the parent commit's file.
	resumed := start()
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
	oldPairs, oldMetrics, _ := upgradeRun(t, resumed, steps, upgradeCut)
	if got := fmt.Sprintf("%x", sha256.Sum256(oldPairs)); got != upgradeResumedSHA256 {
		t.Errorf("pair listing resumed from the parent commit's checkpoint hashes to %s, pinned at %s", got, upgradeResumedSHA256)
	}
	seen := map[[2]uint64]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(oldPairs, []byte("\n")), []byte("\n")) {
		var seq [2]uint64
		var rKey, sKey int
		if _, err := fmt.Sscan(string(line), &seq[0], &seq[1], &rKey, &sKey); err != nil {
			t.Fatalf("pair line %q: %v", line, err)
		}
		if rKey != sKey || seq[0]%2 != 0 || seq[1]%2 != 1 || seen[seq] {
			t.Fatalf("pair %q: keys differ, a tag sits on the wrong side, or the pair was emitted before", line)
		}
		seen[seq] = true
	}
	if len(seen) == 0 || oldMetrics.Ingested != wantMetrics.Ingested {
		t.Fatalf("resumed run emitted %d pairs over %d steps, the uninterrupted run counts %d steps", len(seen), oldMetrics.Ingested, wantMetrics.Ingested)
	}
	for i, sh := range oldMetrics.Shards {
		if want := wantMetrics.Shards[i].Engine; sh.Engine.Steps != want.Steps || sh.Engine.CacheLen != want.CacheLen {
			t.Fatalf("shard %d: %+v resumed, %+v uninterrupted: steps or occupancy differ", i, sh.Engine, want)
		}
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

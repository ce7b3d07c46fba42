package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// The engine restores its own checkpoint format and the previous one, and
// refuses anything older (docs/fault-tolerance.md, "Formats"). The previous
// format carries StateRNG, a generator no policy read. prob_pr49.ckpt and
// heeb_pr49.ckpt were written by 35fa35d, the last commit that wrote it;
// heeb_pr22.ckpt was written by e7de806, before History was bounded, and
// carries every observation (Hists) in place of the history counts. Their
// bytes are pinned, so that a fixture regenerated at a later commit fails the
// tests that read it instead of testing the current format twice.
const (
	probFixtureSHA256     = "308b396cc9c6eaf1fbe9bf0768f1247431a8a75c7b69fb5478bfe384dd9e6b5f"
	heebFixtureSHA256     = "1c41d7499cfe13ccbcba859350d7db3da68daa3e841eadbd9c926e6f1cb9fddb"
	histsEraFixtureSHA256 = "10c2c23e19309a0a639a30c0e183099078039382f7b89155021461624a88e9e9"
)

// olderWire is what this package's earlier formats wrote beside the current
// fields; gob matches fields by name, so a fixture decodes into it whole.
type olderWire struct {
	Time     int
	HistLen  [2]int
	Hists    *[2][]int
	StateRNG []byte
}

// readFixture reads the fixture at path, requires its pinned SHA-256 and the
// format it stands for — previous: a state RNG and history counts as long as
// the clock; Hists era: full logs as long as the clock, no counts — and
// returns the file.
func readFixture(t *testing.T, path, sum string, histsEra bool) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != sum {
		t.Fatalf("%s hashes to %s, pinned at %s", path, got, sum)
	}
	payload, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var w olderWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	ok := w.StateRNG != nil && w.Hists == nil && w.HistLen == [2]int{w.Time, w.Time}
	if histsEra {
		ok = w.Hists != nil && len(w.Hists[0]) == w.Time && len(w.Hists[1]) == w.Time && w.HistLen == [2]int{}
	}
	if w.Time == 0 || !ok {
		t.Fatalf("%s is not a checkpoint of the format it stands for: time %d, state RNG %v, logs %v, counts %v",
			path, w.Time, w.StateRNG != nil, w.Hists != nil, w.HistLen)
	}
	return raw
}

// checkpointOf is j's checkpoint.
func checkpointOf(t testing.TB, j *Join) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// continuesUninterrupted restores old into resumed, steps it and whole (which
// has run to the checkpoint's step) through steps at..n-1, and requires the
// same pairs step for step and the same checkpoint at the end.
func continuesUninterrupted(t *testing.T, old []byte, whole, resumed *Join, step func(*Join, int) []Pair, at, n int) {
	t.Helper()
	if err := resumed.Restore(bytes.NewReader(old)); err != nil {
		t.Fatalf("restoring the parent commit's checkpoint: %v", err)
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointOf(t, whole), checkpointOf(t, resumed)) {
		t.Fatal("the restored operator's checkpoint differs from the uninterrupted run's at the cut")
	}
	for i := at; i < n; i++ {
		pw := copyPairs(step(whole, i))
		pr := step(resumed, i)
		if !pairsEqual(pw, pr) {
			t.Fatalf("step %d pairs diverge:\n  uninterrupted %v\n  restored      %v", i, pw, pr)
		}
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointOf(t, whole), checkpointOf(t, resumed)) {
		t.Fatal("final checkpoints differ between the uninterrupted and the restored run")
	}
}

// testdata/upgrade/prob_pr49.ckpt: PROB, cache 8, seed 11, after step 200 of
// ckptTrace's streams, with PROB's value counts as its policy state. The run
// continues as one that was never interrupted.
func TestRestoreParentCommitPROBCheckpoint(t *testing.T) {
	old := readFixture(t, "testdata/upgrade/prob_pr49.ckpt", probFixtureSHA256, false)
	const n, at = 600, 200
	r, s := ckptTrace(n)
	mk := func() *Join {
		j, err := NewJoin(Config{CacheSize: 8, Seed: 11, Policy: &policy.Prob{}})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	whole, resumed := mk(), mk()
	for i := 0; i < at; i++ {
		whole.Step(r[i], s[i])
	}
	// Restore replaces state: steps the operator took before it leave no
	// trace in the counts.
	for i := 0; i < 50; i++ {
		resumed.Step(s[i], r[i])
	}
	continuesUninterrupted(t, old, whole, resumed, func(j *Join, i int) []Pair { return j.Step(r[i], s[i]) }, at, n)
}

// testdata/upgrade/heeb_pr49.ckpt: TOWER, cache 8, seed 9, after step 300 of
// stats.NewRNG(77)'s streams, with HEEB's α and lifetime tracker. The run
// continues as one that was never interrupted.
func TestRestoreParentCommitHEEBCheckpoint(t *testing.T) {
	old := readFixture(t, "testdata/upgrade/heeb_pr49.ckpt", heebFixtureSHA256, false)
	const n, at = 900, 300
	w := workload.Tower().Join()
	mk := func() *Join {
		j, err := NewJoin(Config{CacheSize: 8, Procs: w.Procs, Policy: w.HEEBPolicy(), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	r, s := w.Generate(stats.NewRNG(77), n)
	step := func(j *Join, i int) []Pair { return j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]}) }
	whole, resumed := mk(), mk()
	for i := 0; i < at; i++ {
		step(whole, i)
	}
	continuesUninterrupted(t, old, whole, resumed, step, at, n)
}

// testdata/upgrade/heeb_pr22.ckpt is of the format before the previous one:
// the fixture the HEEB test above read until the engine's shape moved again.
// It carries no history counts, so validateWire refuses it, and the operator
// it was offered to is untouched: its next checkpoint is the one it would
// have written without the attempt.
func TestRestoreRefusesHistsEraCheckpoint(t *testing.T) {
	old := readFixture(t, "testdata/upgrade/heeb_pr22.ckpt", histsEraFixtureSHA256, true)
	w := workload.Tower().Join()
	j, err := NewJoin(Config{CacheSize: 8, Procs: w.Procs, Policy: w.HEEBPolicy(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, s := w.Generate(stats.NewRNG(77), 100)
	for i := range r {
		j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
	}
	before := checkpointOf(t, j)
	err = j.Restore(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "histories of 0 and 0 observations for 300 steps") {
		t.Fatalf("got %v, want the refusal of a file with no history counts", err)
	}
	if !bytes.Equal(checkpointOf(t, j), before) {
		t.Fatal("the refused restore changed the operator's next checkpoint")
	}
}

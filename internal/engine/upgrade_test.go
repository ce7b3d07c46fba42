package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
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
// format carries each history's count and last value (HistLen, HistLast),
// which no restore reads. prob_pr57.ckpt and heeb_pr57.ckpt were written by
// 22e9c79, the last commit that wrote them; heeb_pr49.ckpt was written by
// 35fa35d, when the process signature named the models' types alone. Their
// bytes are pinned, so that a fixture regenerated at a later commit fails the
// tests that read it instead of testing the current format twice.
const (
	probFixtureSHA256    = "7d2019d1f7f39cb979ef573ca9494b31b678e9d2aa6937521cd3042946906587"
	heebFixtureSHA256    = "b8e861b8ee393c396da0808d35ec8a978603f4f888adc1cfd838852aa4130fa2"
	typeSigFixtureSHA256 = "1c41d7499cfe13ccbcba859350d7db3da68daa3e841eadbd9c926e6f1cb9fddb"
)

// olderWire is what this package's earlier formats wrote beside the current
// fields; gob matches fields by name, so a fixture decodes into it whole.
type olderWire struct {
	ProcSig string
	Time    int
	HistLen [2]int
}

// readFixture reads the fixture at path, requires its pinned SHA-256 and the
// format it stands for — previous: a forecast digest in the signature and
// history counts as long as the clock; older: a signature of types alone —
// and returns the file.
func readFixture(t *testing.T, path, sum string, previous bool) []byte {
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
	digest := strings.Contains(w.ProcSig, "#")
	ok := !digest
	if previous {
		ok = digest && w.HistLen == [2]int{w.Time, w.Time}
	}
	if w.Time == 0 || !ok {
		t.Fatalf("%s is not a checkpoint of the format it stands for: time %d, signature %q, counts %v",
			path, w.Time, w.ProcSig, w.HistLen)
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

// testdata/upgrade/prob_pr57.ckpt: PROB, cache 8, seed 11, after step 200 of
// ckptTrace's streams, with PROB's value counts as its policy state. The run
// continues as one that was never interrupted.
func TestRestoreParentCommitPROBCheckpoint(t *testing.T) {
	old := readFixture(t, "testdata/upgrade/prob_pr57.ckpt", probFixtureSHA256, true)
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

// testdata/upgrade/heeb_pr57.ckpt: TOWER, cache 8, seed 9, after step 300 of
// stats.NewRNG(77)'s streams, with HEEB's α and lifetime tracker. The run
// continues as one that was never interrupted.
func TestRestoreParentCommitHEEBCheckpoint(t *testing.T) {
	old := readFixture(t, "testdata/upgrade/heeb_pr57.ckpt", heebFixtureSHA256, true)
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

// testdata/upgrade/heeb_pr49.ckpt is of the format before the previous one:
// the fixture the HEEB test above read until the engine's shape moved again.
// Its signature names the models' types without a forecast digest, so the
// fingerprint check refuses it, and the operator it was offered to is
// untouched: its next checkpoint is the one it would have written without the
// attempt.
func TestRestoreRefusesTypeSignedCheckpoint(t *testing.T) {
	old := readFixture(t, "testdata/upgrade/heeb_pr49.ckpt", typeSigFixtureSHA256, false)
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
	if !errors.Is(err, ErrConfigMismatch) || !strings.Contains(err.Error(), "checkpoint processes") {
		t.Fatalf("got %v, want the refusal of a signature without a forecast digest", err)
	}
	if !bytes.Equal(checkpointOf(t, j), before) {
		t.Fatal("the refused restore changed the operator's next checkpoint")
	}
}

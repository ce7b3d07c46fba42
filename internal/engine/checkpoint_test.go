package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// ckptConfigs is the configuration grid the checkpoint differential tests
// run: the default model-free policy (RAND, private RNG state), the two
// policies whose state is the value counts no history keeps (PROB, and LIFE
// deciding behind a ladder rung that always fails, so the counts reach it
// through the ladder's arrival hook and leave through the ladder's snapshot),
// HEEB on a band join (adaptive tracker + incremental score state), and the
// full degradation ladder on a sliding window.
func ckptConfigs() []struct {
	name string
	mk   func() Config
} {
	return []struct {
		name string
		mk   func() Config
	}{
		{"equi-rand", func() Config {
			return Config{CacheSize: 8, Seed: 11}
		}},
		{"equi-prob", func() Config {
			return Config{CacheSize: 8, Seed: 11, Policy: &policy.Prob{}}
		}},
		{"ladder-life", func() Config {
			life := &policy.Life{Lifetime: func(now int, tp join.Tuple) int { return 40 - (now - tp.Arrived) }}
			return Config{CacheSize: 8, Seed: 11, Policy: &policy.Ladder{Rungs: []join.Policy{failingRung{}, life}}}
		}},
		{"band-heeb", func() Config {
			return Config{CacheSize: 8, Band: 2, Seed: 11, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts())}
		}},
		{"window-ladder", func() Config {
			return Config{CacheSize: 6, Window: 10, Seed: 11, Procs: trendProcs(),
				Policy: policy.NewDefaultLadder(4, 0, heebOpts())}
		}},
	}
}

// ckptTrace generates a deterministic stream trace with payloads and caller
// tags attached.
func ckptTrace(n int) (r, s []Tuple) {
	procs := trendProcs()
	rng := stats.NewRNG(909)
	rv := procs[0].Generate(rng.Split(), n)
	sv := procs[1].Generate(rng.Split(), n)
	r = make([]Tuple, n)
	s = make([]Tuple, n)
	for i := 0; i < n; i++ {
		r[i] = Tuple{Key: rv[i], Payload: i, Seq: uint64(3 * i)}
		s[i] = Tuple{Key: sv[i], Payload: -i - 1, Seq: uint64(3*i + 1)}
	}
	return r, s
}

func copyPairs(ps []Pair) []Pair { return append([]Pair(nil), ps...) }

// The tentpole differential test: an operator checkpointed at an arbitrary
// step and restored into a freshly built operator must replay the remaining
// trace byte-identically to the uninterrupted run — same pairs (payloads
// included), same cache snapshots, same metrics. Per configuration class
// the cut point varies so the checkpoint lands on both calm and mid-churn
// states.
func TestCheckpointRestoreReplayIdentical(t *testing.T) {
	const n = 600
	r, s := ckptTrace(n)
	for _, tc := range ckptConfigs() {
		for _, cut := range []int{1, n / 3, n / 2} {
			t.Run(fmt.Sprintf("%s/cut%d", tc.name, cut), func(t *testing.T) {
				// Uninterrupted baseline.
				base, err := NewJoin(tc.mk())
				if err != nil {
					t.Fatal(err)
				}
				basePairs := make([][]Pair, n)
				for i := 0; i < n; i++ {
					basePairs[i] = copyPairs(base.Step(r[i], s[i]))
				}

				// Interrupted run: step to the cut, checkpoint.
				orig, err := NewJoin(tc.mk())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cut; i++ {
					orig.Step(r[i], s[i])
				}
				var buf bytes.Buffer
				if err := orig.Checkpoint(&buf); err != nil {
					t.Fatalf("Checkpoint at %d: %v", cut, err)
				}

				// Restore into a fresh operator and replay the tail.
				restored, err := NewJoin(tc.mk())
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("Restore at %d: %v", cut, err)
				}
				if !snapshotsEqual(restored.Snapshot(), orig.Snapshot()) {
					t.Fatalf("cut %d: restored cache snapshot differs:\n  restored %v\n  original %v",
						cut, restored.Snapshot(), orig.Snapshot())
				}
				if rm, om := restored.Metrics(), orig.Metrics(); rm != om {
					t.Fatalf("cut %d: restored metrics differ:\n  restored %+v\n  original %+v", cut, rm, om)
				}
				if err := restored.CheckInvariants(); err != nil {
					t.Fatalf("cut %d: restored operator invariants: %v", cut, err)
				}
				for i := cut; i < n; i++ {
					got := restored.Step(r[i], s[i])
					if !pairsEqual(got, basePairs[i]) {
						t.Fatalf("cut %d: step %d pairs diverge after restore:\n  restored %v\n  baseline %v",
							cut, i, got, basePairs[i])
					}
				}
				if rm, bm := restored.Metrics(), base.Metrics(); rm != bm {
					t.Fatalf("cut %d: final metrics diverge:\n  restored %+v\n  baseline %+v", cut, rm, bm)
				}
				if !snapshotsEqual(restored.Snapshot(), base.Snapshot()) {
					t.Fatalf("cut %d: final caches diverge", cut)
				}
			})
		}
	}
}

// A restored operator must also track the reference oracle — reusing the
// hot-path differential harness's strongest claim across the interruption.
func TestCheckpointRestoreTracksReference(t *testing.T) {
	const n, cut = 800, 311
	r, s := ckptTrace(n)
	mkCfg := func() Config {
		return Config{CacheSize: 10, Window: 14, Band: 1, Seed: 3, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts())}
	}
	ref, err := NewReferenceJoin(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewJoin(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < cut; i++ {
		ref.Step(r[i], s[i])
		op.Step(r[i], s[i])
	}
	if err := op.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	op, err = NewJoin(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < n; i++ {
		pr := ref.Step(r[i], s[i])
		po := op.Step(r[i], s[i])
		if !pairsEqual(po, pr) {
			t.Fatalf("step %d: restored operator diverges from reference:\n  op  %v\n  ref %v", i, po, pr)
		}
	}
}

// steppedOperator builds an operator, advances it, and returns it with its
// checkpoint bytes — shared setup for the failure-path tests.
func steppedOperator(t *testing.T, steps int) (*Join, []byte) {
	t.Helper()
	r, s := ckptTrace(steps)
	j, err := NewJoin(Config{CacheSize: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		j.Step(r[i], s[i])
	}
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return j, buf.Bytes()
}

// requireUntouched verifies a failed restore left the operator exactly as it
// was: same snapshot and metrics, and stepping it onward still matches a
// control operator that never saw the failed restore.
func requireUntouched(t *testing.T, j *Join, ckpt []byte) {
	t.Helper()
	control, err := NewJoin(Config{CacheSize: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := control.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("control restore: %v", err)
	}
	if !snapshotsEqual(j.Snapshot(), control.Snapshot()) {
		t.Fatalf("failed restore mutated the cache:\n  got  %v\n  want %v", j.Snapshot(), control.Snapshot())
	}
	if jm, cm := j.Metrics(), control.Metrics(); jm != cm {
		t.Fatalf("failed restore mutated metrics:\n  got  %+v\n  want %+v", jm, cm)
	}
	r, s := ckptTrace(140)
	for i := 100; i < 140; i++ {
		if !pairsEqual(j.Step(r[i], s[i]), control.Step(r[i], s[i])) {
			t.Fatalf("operator diverges from control at step %d after failed restore", i)
		}
	}
}

// Version skew and corruption must yield the typed envelope errors and leave
// the operator untouched — no partial restore.
func TestRestoreRejectsSkewAndCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"future-version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[4:8], checkpoint.Version+7)
			return c
		}, checkpoint.ErrUnsupportedVersion},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = '?'
			return c
		}, checkpoint.ErrBadMagic},
		{"corrupt-payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[20] ^= 0x55
			return c
		}, checkpoint.ErrChecksum},
		{"truncated", func(b []byte) []byte {
			return append([]byte(nil), b[:len(b)/2]...)
		}, checkpoint.ErrTruncated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, ckpt := steppedOperator(t, 100)
			err := j.Restore(bytes.NewReader(tc.mutate(ckpt)))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
			requireUntouched(t, j, ckpt)
		})
	}
}

// A checkpoint only restores into an identically configured operator.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	_, ckpt := steppedOperator(t, 100)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cache-size", Config{CacheSize: 16, Seed: 11}},
		{"window", Config{CacheSize: 8, Window: 4, Seed: 11}},
		{"band", Config{CacheSize: 8, Band: 1, Seed: 11}},
		{"seed", Config{CacheSize: 8, Seed: 12}},
		{"policy", Config{CacheSize: 8, Seed: 11, Policy: &policy.Prob{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := NewJoin(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Restore(bytes.NewReader(ckpt)); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("got %v, want ErrConfigMismatch", err)
			}
		})
	}
}

// A payload that passes the checksum but encodes impossible operator state
// (here: a cache entry with an out-of-range ID) must still be rejected.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Forge an internally inconsistent checkpoint through the proper envelope
	// so only the semantic validation can catch it.
	j.nextID = 0 // makes every cached ID out of range on the wire
	var forged bytes.Buffer
	if err := j.Checkpoint(&forged); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewJoin(Config{CacheSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(forged.Bytes())); err == nil {
		t.Fatal("restore accepted a checkpoint with IDs outside [0, nextID)")
	}
	if got := len(fresh.Snapshot()); got != 0 {
		t.Fatalf("failed restore left %d entries in a fresh operator", got)
	}
}

// The equi index keys its table by int32, so a cached key outside [MinKey,
// MaxKey] in a hand-edited file would alias another key (2^32 + k hashes as
// k) or pass for an empty cell (2^31 is NoValue modulo 2^32). Restore rejects
// such a file before anything is committed; a cached NoValue, which never
// joins and is never posted, still restores.
func TestRestoreRejectsKeysOutsideDomain(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(k int) int
	}{
		{"aliases-a-key", func(k int) int { return k + 1<<32 }},
		{"passes-for-empty", func(int) int { return 1 << 31 }},
		{"below-the-domain", func(int) int { return MinKey - 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, ckpt := steppedOperator(t, 100)
			wire := decodeWire(t, ckpt)
			e := &wire.Cache[3].Tuple
			e.Value = tc.edit(e.Value)
			err := j.Restore(bytes.NewReader(encodeWire(t, wire)))
			if err == nil || !strings.Contains(err.Error(), "invalid checkpoint state") || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("got %v, want an invalid-state error naming the key domain", err)
			}
			requireUntouched(t, j, ckpt)
		})
	}
	t.Run("no-value", func(t *testing.T) {
		j, ckpt := steppedOperator(t, 100)
		wire := decodeWire(t, ckpt)
		wire.Cache[3].Tuple.Value = process.NoValue
		if err := j.Restore(bytes.NewReader(encodeWire(t, wire))); err != nil {
			t.Fatal(err)
		}
		if err := j.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// Each stream's history count must be the checkpoint's clock — in the
// (count, last) form this commit writes and in the full logs a file from
// before it carries (the prob_pr22 fixture with one observation cut off).
func TestRestoreRejectsHistoryCountMismatch(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	j.hists[1].Append(3) // stream S one observation ahead of the clock
	var forged bytes.Buffer
	if err := j.Checkpoint(&forged); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewJoin(Config{CacheSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&forged); err == nil {
		t.Fatal("restore accepted a history of 2 observations at time 1")
	}

	old, err := os.ReadFile("testdata/upgrade/prob_pr22.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wire := decodeWire(t, old)
	if wire.Hists == nil || len(wire.Hists[0]) != wire.Time || wire.HistLen != [2]int{} {
		t.Fatalf("the fixture is not a pre-count checkpoint: logs %v, counts %v, time %d", wire.Hists != nil, wire.HistLen, wire.Time)
	}
	wire.Hists[0] = wire.Hists[0][:wire.Time-1]
	prob, err := NewJoin(Config{CacheSize: 8, Seed: 11, Policy: &policy.Prob{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Restore(bytes.NewReader(encodeWire(t, wire))); err == nil {
		t.Fatal("restore accepted a legacy checkpoint whose logs disagree in length")
	}
}

// Checkpointing must not disturb the operator: a run with a mid-flight
// checkpoint produces exactly the pairs of a run without one.
func TestCheckpointIsSideEffectFree(t *testing.T) {
	const n = 300
	r, s := ckptTrace(n)
	mk := func() Config { return Config{CacheSize: 8, Seed: 11, Procs: trendProcs()} }
	a, err := NewJoin(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJoin(mk())
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	for i := 0; i < n; i++ {
		pa := a.Step(r[i], s[i])
		if i%37 == 0 {
			sink.Reset()
			if err := b.Checkpoint(&sink); err != nil {
				t.Fatal(err)
			}
		}
		pb := b.Step(r[i], s[i])
		if !pairsEqual(pa, pb) {
			t.Fatalf("step %d: checkpointing perturbed the run", i)
		}
	}
}

// The simulator-facing policies keep their StateSnapshotter contract: a
// ladder snapshot restores only into an identically-shaped ladder.
func TestLadderSnapshotShapeMismatch(t *testing.T) {
	lad := policy.NewDefaultLadder(4, 0, heebOpts())
	cfg := join.Config{CacheSize: 4, Procs: trendProcs()}
	lad.Reset(cfg, stats.NewRNG(1))
	snap, err := lad.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	other := &policy.Ladder{Rungs: []join.Policy{policy.NewHEEB(heebOpts())}}
	other.Reset(cfg, stats.NewRNG(1))
	if err := other.RestoreState(snap); err == nil {
		t.Fatal("ladder restored a snapshot from a differently-shaped ladder")
	}
}

package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"testing"

	"stochstream/internal/policy"
	"stochstream/internal/stats"
)

// Operator state is the size of the cache, not of the uptime: what a
// checkpoint holds and what the heap holds between steps stop growing once
// the cache is full.

// uniformSteps feeds j n steps of keys uniform over [0, keys).
func uniformSteps(j *Join, rng *stats.RNG, n, keys int) {
	for i := 0; i < n; i++ {
		j.Step(Tuple{Key: rng.IntN(keys)}, Tuple{Key: rng.IntN(keys)})
	}
}

// TestCheckpointSizeIndependentOfSteps: a RAND engine on uniform keys at 10^3
// and at 10^6 steps, and a HEEB engine on its trend models' streams at 10^3
// and at 2×10^5 (a HEEB step is ten times a RAND step under the race
// detector), each with a full cache both times, write checkpoints of the same
// size — but for the width of the integers in them: gob writes one in as many
// bytes as it needs, and the clock, the ID counter, the metrics and each
// cached entry's ID, arrival time and (on a trend) key are up to 1000 times
// larger. Three bytes each is generous. At the parent commit the later
// checkpoints are larger by the histories: two integers a step.
func TestCheckpointSizeIndependentOfSteps(t *testing.T) {
	const cache, short = 8, 1e3
	procs := trendProcs()
	rng := stats.NewRNG(17)
	rv, sv := procs[0].Generate(rng.Split(), 2e5), procs[1].Generate(rng.Split(), 2e5)
	for _, tc := range []struct {
		name string
		cfg  Config
		long int
		feed func(j *Join, from, to int)
	}{
		{"rand", Config{CacheSize: cache, Seed: 3}, 1e6, func(j *Join, from, to int) { uniformSteps(j, rng, to-from, 256) }},
		{"heeb", Config{CacheSize: cache, Seed: 3, Procs: procs, Policy: policy.NewHEEB(heebOpts())}, len(rv), func(j *Join, from, to int) {
			for i := from; i < to; i++ {
				j.Step(Tuple{Key: rv[i]}, Tuple{Key: sv[i]})
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := NewJoin(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			size := func() int {
				var buf bytes.Buffer
				if err := j.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if got := j.Metrics().CacheLen; got != cache {
					t.Fatalf("the cache holds %d of %d entries", got, cache)
				}
				return buf.Len()
			}
			tc.feed(j, 0, short)
			early := size()
			tc.feed(j, short, tc.long)
			late := size()
			const counters = 16 // clock, next ID, six metrics, two history counts and last values, and room
			if slack := 3 * (3*cache + counters); late > early+slack {
				t.Errorf("checkpoint at 10^3 steps is %d bytes, at %d steps %d: more than the %d bytes wider integers explain", early, tc.long, late, slack)
			}
			t.Logf("%d bytes at 10^3 steps, %d at %d", early, late, tc.long)
		})
	}
}

// TestEngineHeapFlatOverUptime: a RAND engine's live heap — HeapAlloc right
// after a forced collection — is the same at 10^5 and at 10^6 steps. At the
// parent commit the two histories alone grew it by 14 MB in between.
func TestEngineHeapFlatOverUptime(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	j, err := NewJoin(Config{CacheSize: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(23)
	uniformSteps(j, rng, 1e5, 1024)
	early := live()
	uniformSteps(j, rng, 1e6-1e5, 1024)
	late := live()
	if late > early+64<<10 {
		t.Errorf("live heap %d bytes at 10^5 steps, %d at 10^6: grew by %d, want within 64 KiB", early, late, late-early)
	}
	runtime.KeepAlive(j)
}

// The engine checkpoint fixtures are in the format before this commit's,
// which carries both streams' full observation logs (Hists) where this one
// carries a count and the last value. Both were written by e7de806, the
// commit before History was bounded, and their bytes are pinned, so that a
// fixture regenerated at a later commit fails the tests that read it instead
// of testing the current format twice.
const (
	probFixtureSHA256 = "008010d2f9702a874804f963036fea4c507c68a8a93d587338762d1a5c8eb4a5"
	heebFixtureSHA256 = "10c2c23e19309a0a639a30c0e183099078039382f7b89155021461624a88e9e9"
)

// readHistsFixture reads the fixture at path, requires its pinned SHA-256 and
// the previous format — full logs as long as the clock, no counts — and
// returns the file.
func readHistsFixture(t *testing.T, path, sum string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != sum {
		t.Fatalf("%s hashes to %s, pinned at %s", path, got, sum)
	}
	wire := decodeWire(t, raw)
	if wire.Hists == nil || len(wire.Hists[0]) != wire.Time || len(wire.Hists[1]) != wire.Time || wire.HistLen != [2]int{} {
		t.Fatalf("%s is not a checkpoint with full logs: logs %v, counts %v, time %d", path, wire.Hists != nil, wire.HistLen, wire.Time)
	}
	return raw
}

// testdata/upgrade/prob_pr22.ckpt is an engine checkpoint written by the
// commit before History was bounded: PROB, cache 8, seed 11, after step 200
// of ckptTrace's streams — both full observation logs, no history counts and
// no policy state, PROB having read its counts off the logs then. It restores
// here by folding the logs into the policy's counts once, and the run
// continues as one that was never interrupted: same pairs, step for step, and
// the same final checkpoint, which holds the counts and no log, once both
// caches are read in ID order — the file predates the slot table (PR 27) and
// restores as the ID-ordered layout it lists, the uninterrupted run has the
// layout its own evictions left, and a scored policy does not read positions.
func TestRestoreParentCommitPROBCheckpoint(t *testing.T) {
	old := readHistsFixture(t, "testdata/upgrade/prob_pr22.ckpt", probFixtureSHA256)
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
	if err := resumed.Restore(bytes.NewReader(old)); err != nil {
		t.Fatalf("restoring the parent commit's checkpoint: %v", err)
	}
	for i := at; i < n; i++ {
		pw := whole.Step(r[i], s[i])
		pr := resumed.Step(r[i], s[i])
		if !pairsEqual(pw, pr) {
			t.Fatalf("step %d pairs diverge:\n  uninterrupted %v\n  restored      %v", i, pw, pr)
		}
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointByID(t, whole), checkpointByID(t, resumed)) {
		t.Fatal("final checkpoints, caches in ID order, differ between the uninterrupted and the restored run")
	}
}
